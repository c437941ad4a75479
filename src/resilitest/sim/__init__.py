"""Deterministic virtual-time microservice simulator (system under test)."""
