"""Interface aggregation: partition the corpus by entry-point interface.

Root-span request lines ("POST /api/login/alice") are folded through a
Drain-style fixed-depth parse tree that learns the static and variable parts
of each line, so thousands of calls that differ only in parameter values
collapse into one interface cluster per API template.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .model import Corpus, RequestLineError, parse_request_line, write_lines

WILDCARD = "<*>"

TREE_DEPTH = 4
SIMILARITY_THRESHOLD = 0.5
MAX_CHILDREN = 100


@dataclass
class InterfaceCluster:
    interface_id: str
    template_tokens: list  # literal strings and WILDCARD markers
    member_trace_ids: list
    http_method: str

    def template_string(self) -> str:
        return f"{self.http_method} /" + "/".join(self.template_tokens)


def interface_digest(method: str, template_tokens: list) -> str:
    text = method + " " + "\x1f".join(template_tokens)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class _Leaf:
    __slots__ = ("template", "trace_ids")

    def __init__(self, tokens, trace_id):
        self.template = list(tokens)
        self.trace_ids = [trace_id]


def _has_digit(token: str) -> bool:
    return any(ch.isdigit() for ch in token)


def _similarity(template, tokens):
    if not template:
        return 1.0, 0
    same = 0
    wildcards = 0
    for a, b in zip(template, tokens):
        if a == WILDCARD:
            wildcards += 1
        elif a == b:
            same += 1
    return same / len(template), wildcards


class DrainTree:
    """Online fixed-depth parse tree; the first levels are keyed by
    (method, token count) then by leading tokens, leaves hold clusters."""

    def __init__(self):
        self._root = {}

    def _leaf_group(self, method: str, tokens: list) -> list:
        key = (method, len(tokens))
        node = self._root.setdefault(key, {})
        for token in tokens[:TREE_DEPTH - 2]:
            children = node.setdefault("children", {})
            if token in children:
                node = children[token]
            elif _has_digit(token):
                node = children.setdefault(WILDCARD, {})
            elif len(children) < MAX_CHILDREN:
                node = children.setdefault(token, {})
            else:
                node = children.setdefault(WILDCARD, {})
        return node.setdefault("leaves", [])

    def add(self, method: str, tokens: list, trace_id: str) -> None:
        leaves = self._leaf_group(method, tokens)
        best = None
        best_key = (-1.0, -1)
        for leaf in leaves:
            sim, wildcards = _similarity(leaf.template, tokens)
            if (sim, wildcards) > best_key:
                best_key = (sim, wildcards)
                best = leaf
        if best is not None and best_key[0] >= SIMILARITY_THRESHOLD:
            best.trace_ids.append(trace_id)
            best.template = [a if a == b else WILDCARD
                             for a, b in zip(best.template, tokens)]
        else:
            leaves.append(_Leaf(tokens, trace_id))

    def clusters(self) -> list:
        out = []
        for (method, _count), node in self._root.items():
            out.extend(self._collect(method, node))
        out.sort(key=lambda c: (c.http_method, c.template_tokens))
        return out

    def _collect(self, method, node):
        found = []
        for leaf in node.get("leaves", []):
            found.append(InterfaceCluster(
                interface_id=interface_digest(method, leaf.template),
                template_tokens=list(leaf.template),
                member_trace_ids=list(leaf.trace_ids),
                http_method=method,
            ))
        for child in node.get("children", {}).values():
            found.extend(self._collect(method, child))
        return found


def cluster_interfaces(corpus: Corpus) -> list:
    """Partition all corpus traces into interface clusters (every trace in
    exactly one cluster); a root request line that does not parse raises
    RequestLineError naming its trace."""
    tree = DrainTree()
    for trace in corpus.traces:
        try:
            method, tokens = parse_request_line(trace.root_span().operation_name)
        except RequestLineError as exc:
            raise RequestLineError(f"trace {trace.trace_id}: {exc}") from None
        tree.add(method, tokens, trace.trace_id)
    return tree.clusters()


def save_cluster_report(clusters: list, path) -> None:
    write_lines(path, (f"{cluster.interface_id} {cluster.template_string()} "
                       f"{len(cluster.member_trace_ids)}" for cluster in clusters))
