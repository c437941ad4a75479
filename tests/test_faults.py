import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilitest.faults import (CatalogError, EndpointMatcher, WILDCARD,
                               default_catalog, faults_for_endpoint,
                               load_catalog, parse_catalog)
from resilitest.model import Endpoint


def test_default_catalog_loads_with_all_categories():
    catalog = default_catalog()
    assert len(catalog) >= 12
    categories = {f.category for f in catalog.values()}
    assert categories == {"platform_exception", "comm_latency",
                          "comm_protocol_error", "comm_manipulated_response"}


def test_default_catalog_carries_named_exceptions():
    catalog = default_catalog()
    thrown = {f.effect.exception for f in catalog.values()
              if f.effect.kind == "throw"}
    for name in ("SQLTimeoutException", "SerializationException",
                 "RedisConnectionException", "SocketTimeoutException",
                 "DisconnectException"):
        assert name in thrown


def test_sql_timeout_applies_to_database_endpoints():
    catalog = default_catalog()
    faults = faults_for_endpoint(catalog, Endpoint("Database", "sqlclient", "update"))
    assert any(f.effect.exception == "SQLTimeoutException" for f in faults)


def test_mq_send_gets_timeout_and_serialization():
    catalog = default_catalog()
    faults = faults_for_endpoint(catalog, Endpoint("MQ", "mqclient", "send"))
    exceptions = {f.effect.exception for f in faults if f.effect.kind == "throw"}
    assert "TimeoutException" in exceptions
    assert "SerializationException" in exceptions


def test_http_call_gets_statuses_socket_timeout_and_delay():
    catalog = default_catalog()
    faults = faults_for_endpoint(catalog, Endpoint("HTTP", "httpclient", "call"))
    codes = {f.effect.status_code for f in faults if f.effect.kind == "status"}
    assert {500, 401, 504} <= codes
    assert any(f.effect.exception == "SocketTimeoutException" for f in faults)
    assert any(f.effect.kind == "delay" for f in faults)


def test_unmatched_endpoint_yields_empty_list():
    text = "only-http comm_protocol_error HTTP:*:* throw ConnectException\n"
    small = parse_catalog(text)
    assert faults_for_endpoint(small, Endpoint("Cache", "jedis", "get")) == []


def test_results_ordered_by_fault_id():
    catalog = default_catalog()
    faults = faults_for_endpoint(catalog, Endpoint("HTTP", "okhttp", "get"))
    assert [f.fault_id for f in faults] == sorted(f.fault_id for f in faults)


def test_duplicate_fault_id_rejected():
    text = ("a platform_exception Database:*:* throw X\n"
            "a platform_exception Cache:*:* throw Y\n")
    with pytest.raises(CatalogError, match="duplicate"):
        parse_catalog(text)


def test_unknown_category_names_line():
    text = "# comment\nok platform_exception Database:*:* throw X\nbad nope Cache:*:* throw Y\n"
    with pytest.raises(CatalogError, match="line 3"):
        parse_catalog(text)


def test_effect_category_consistency_enforced():
    with pytest.raises(CatalogError, match="inconsistent"):
        parse_catalog("x comm_latency Database:*:* throw Boom\n")
    with pytest.raises(CatalogError, match="inconsistent"):
        parse_catalog("x platform_exception Database:*:* delay 5s\n")


def test_delay_parsing_units():
    catalog = parse_catalog("a comm_latency Database:*:* delay 250ms\n"
                            "b comm_latency Cache:*:* delay 2s\n"
                            "c comm_latency HTTP:*:* delay auto\n")
    assert catalog.get("a").effect.delay_us == 250_000
    assert catalog.get("b").effect.delay_us == 2_000_000
    assert catalog.get("c").effect.delay_us is None


def test_load_catalog_from_file(tmp_path):
    path = tmp_path / "faults.txt"
    path.write_text("z platform_exception MQ:kafka:send throw DisconnectException\n")
    catalog = load_catalog(path)
    assert catalog.get("z").matcher.framework == "kafka"


_COMPONENTS = st.sampled_from(["Database", "Cache", "MQ", "RPC", "HTTP"])
_NAMES = st.text(st.characters(min_codepoint=97, max_codepoint=122),
                 min_size=1, max_size=6)


@given(component=_COMPONENTS, framework=_NAMES, method=_NAMES)
@settings(max_examples=100, deadline=None)
def test_matcher_monotonicity(component, framework, method):
    # relaxing a matcher constraint never shrinks the match set
    endpoint = Endpoint(component, framework, method)
    tight = EndpointMatcher(component, framework, method)
    mid = EndpointMatcher(component, framework, WILDCARD)
    loose = EndpointMatcher(component, WILDCARD, WILDCARD)
    loosest = EndpointMatcher(WILDCARD, WILDCARD, WILDCARD)
    results = [m.matches(endpoint) for m in (tight, mid, loose, loosest)]
    for earlier, later in zip(results, results[1:]):
        assert later or not earlier


def test_every_reference_endpoint_has_a_fault(ref_topology, catalog):
    uncovered = []
    for svc, iface in ref_topology.interfaces():
        for step in iface.workflow:
            if not faults_for_endpoint(catalog, step.endpoint()):
                uncovered.append((svc.name, step.endpoint().triple()))
    assert uncovered == []
