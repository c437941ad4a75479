import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilitest.model import compute_window
from resilitest.templating import (ManualVariableRegistry, MemberRoots,
                                   SequentialIdSource, TemplatingError,
                                   build_template, find_intraspan_candidates,
                                   instantiate, load_templates, save_templates)

from conftest import make_trace, root_span
from reference_system import save_registry


def session_echo_span(span_id, session, domain="acme-cloud", start=0):
    # session_id round-trips request -> response; domain_id too but constant;
    # status only ever appears in the response
    return root_span(span_id, "POST /svc/sessions/open",
                     req={"session_id": session, "domain_id": domain},
                     resp={"session_id": session, "domain_id": domain,
                           "status": "ok"},
                     start=start)


def test_stage1_finds_session_id_round_trip():
    span = session_echo_span("s0", "f7k9q2")
    assert find_intraspan_candidates(span) == {"session_id", "domain_id"}


def test_stage1_no_shared_values():
    span = root_span("s0", "GET /a/b/c", req={"a": "1"}, resp={"b": "2"})
    assert find_intraspan_candidates(span) == set()


def test_stage1_multiple_request_paths_matching_same_value():
    span = root_span("s0", "GET /a/b/c", req={"x": "vvvv", "y": "vvvv"},
                     resp={"z": "vvvv"})
    # brute-force comparison over all path pairs agrees
    expected = {rk for rk, rv in span.request_payload.items()
                if any(rv == pv for pv in span.response_payload.values())}
    assert find_intraspan_candidates(span) == expected == {"x", "y"}


def test_stage2_confirms_varying_session_only():
    spans = [session_echo_span("s0", "f7k9q2"), session_echo_span("s1", "r4m8p1")]
    assert MemberRoots(spans).confirmed() == {"session_id"}


def test_stage2_identical_spans_yield_nothing():
    spans = [session_echo_span("s0", "f7k9q2"), session_echo_span("s1", "f7k9q2")]
    assert MemberRoots(spans).confirmed() == set()


def test_stage2_generated_ground_truth():
    # 50 spans: token T cycles through 3 values, token U constant; both echoed
    values = ["val-one", "val-two", "val-three"]
    spans = []
    for i in range(50):
        t = values[i % 3]
        spans.append(root_span(f"s{i}", "POST /svc/things/make",
                               req={"T": t, "U": "const-u"},
                               resp={"T": t, "U": "const-u"}))
    assert MemberRoots(spans).confirmed() == {"T"}


def test_stage2_requires_two_instances():
    assert MemberRoots([session_echo_span("s0", "a")]).confirmed() == set()


def test_build_template_session_pair():
    traces = [make_trace("t0", [session_echo_span("s0", "f7k9q2")]),
              make_trace("t1", [session_echo_span("s1", "r4m8p1")])]
    template = build_template(traces, ManualVariableRegistry(), interface_id="if0",
                              window=compute_window(traces), trace_id="t0")
    assert set(template.placeholders) == {"session_id"}


def test_registry_override_without_inter_span_evidence():
    trace = make_trace("t0", [root_span("s0", "POST /svc/pay/send",
                                        req={"auth.signature": "sig-abc123"},
                                        resp={"ok": "yes"})])
    registry = ManualVariableRegistry()
    registry.register("if0", "auth.signature", "fresh_id", note="hmac")
    template = build_template([trace], registry, interface_id="if0",
                              window=compute_window([trace]), trace_id="t0")
    assert template.placeholders == {"auth.signature": "fresh_id"}


def test_registry_for_other_interface_does_not_apply():
    trace = make_trace("t0", [root_span("s0", "POST /svc/pay/send",
                                        req={"auth.signature": "sig-abc123"},
                                        resp={"ok": "yes"})])
    registry = ManualVariableRegistry()
    registry.register("OTHER", "auth.signature", "fresh_id")
    template_a = build_template([trace], registry, interface_id="if0",
                                window=compute_window([trace]), trace_id="t0")
    assert template_a.placeholders == {}
    template_b = build_template([trace], registry, interface_id="OTHER",
                                window=compute_window([trace]), trace_id="t0")
    assert len(template_b.placeholders) == 1


def test_build_template_empty_input_rejected():
    with pytest.raises(TemplatingError):
        build_template([], ManualVariableRegistry(), interface_id="if0",
                       window=(0, 0), trace_id="t0")
    trace = make_trace("t0", [session_echo_span("s0", "f7k9q2")])
    with pytest.raises(TemplatingError, match="'t9' is not a member"):
        build_template([trace], ManualVariableRegistry(), interface_id="if0",
                       window=compute_window([trace]), trace_id="t9")


def test_template_fixpoint_on_instantiated_output():
    traces = [make_trace("t0", [session_echo_span("s0", "f7k9q2")]),
              make_trace("t1", [session_echo_span("s1", "r4m8p1")])]
    registry = ManualVariableRegistry()
    first = build_template(traces, registry, interface_id="if0",
                           window=compute_window(traces), trace_id="t0")

    # re-record: replays with fresh ids produce new instances of the same shape
    ids = SequentialIdSource("fx")
    replayed = []
    for i in range(3):
        req = instantiate(first, 1000 + i, ids)
        replayed.append(make_trace(
            f"r{i}", [root_span(f"s{i}", req.line, req=dict(req.payload),
                                resp={**req.payload, "status": "ok"})]))
    second = build_template(replayed, registry, interface_id="if0",
                            window=compute_window(replayed), trace_id="r0")
    assert second.placeholders == first.placeholders


def test_instantiate_fresh_and_unique_session():
    traces = [make_trace("t0", [session_echo_span("s0", "f7k9q2")]),
              make_trace("t1", [session_echo_span("s1", "r4m8p1")])]
    template = build_template(traces, ManualVariableRegistry(), interface_id="if0",
                              window=compute_window(traces), trace_id="t0")
    ids = SequentialIdSource("rp")
    a = instantiate(template, 5, ids)
    b = instantiate(template, 5, ids)
    assert a.payload["session_id"] not in ("f7k9q2", "r4m8p1")
    assert a.payload["session_id"] != b.payload["session_id"]
    # non-dynamic content is byte-identical to the base trace
    assert a.payload["domain_id"] == "acme-cloud"


def test_instantiate_zero_placeholders_is_identity():
    trace = make_trace("t0", [root_span("s0", "GET /svc/fixed/thing",
                                        req={"p": "q"}, resp={"r": "s"})])
    template = build_template([trace], ManualVariableRegistry(), interface_id="i",
                              window=compute_window([trace]), trace_id="t0")
    out = instantiate(template, 9, SequentialIdSource())
    assert out.payload == {"p": "q"}
    assert out.line == "GET /svc/fixed/thing"


def test_instantiate_deterministic_under_same_context():
    traces = [make_trace("t0", [session_echo_span("s0", "f7k9q2")]),
              make_trace("t1", [session_echo_span("s1", "r4m8p1")])]
    template = build_template(traces, ManualVariableRegistry(), interface_id="if0",
                              window=compute_window(traces), trace_id="t0")
    a = instantiate(template, 5, SequentialIdSource("x"))
    b = instantiate(template, 5, SequentialIdSource("x"))
    assert a == b


def test_instantiate_timestamp_kind_uses_now():
    spans = [root_span(f"s{i}", "POST /svc/clock/set",
                       req={"ts": str(1000 + i)}, resp={"ts": str(1000 + i)},
                       start=1000 + i)
             for i in range(2)]
    traces = [make_trace(f"t{i}", [s]) for i, s in enumerate(spans)]
    template = build_template(traces, ManualVariableRegistry(), interface_id="i",
                              window=(0, 5000), trace_id="t0")
    out = instantiate(template, 777777, SequentialIdSource())
    assert out.payload["ts"] == "777777"


def test_unknown_placeholder_kind_rejected():
    traces = [make_trace("t0", [session_echo_span("s0", "f7k9q2")]),
              make_trace("t1", [session_echo_span("s1", "r4m8p1")])]
    template = build_template(traces, ManualVariableRegistry(), interface_id="if0",
                              window=compute_window(traces), trace_id="t0")
    for key in template.placeholders:
        template.placeholders[key] = "wat"
    with pytest.raises(TemplatingError):
        instantiate(template, 1, SequentialIdSource())


def test_registry_rejects_opaque_copy():
    # only fresh_id and timestamp have a replay rule
    with pytest.raises(TemplatingError, match="invalid placeholder kind"):
        ManualVariableRegistry().register("i", "cursor", "opaque_copy")


def test_registry_double_add_is_idempotent():
    registry = ManualVariableRegistry()
    registry.register("i", "k", "fresh_id")
    registry.register("i", "k", "fresh_id")
    assert len(registry.entries) == 1


def test_registry_file_round_trip(tmp_path):
    registry = ManualVariableRegistry()
    registry.register("ifa", "sig", "fresh_id", note="computed signature")
    registry.register("ifb", "chain.token", "timestamp")
    path = tmp_path / "registry.txt"
    save_registry(registry, path)
    assert path.read_text().splitlines() == [
        "ifa req sig fresh_id  # computed signature", "ifb req chain.token timestamp"]
    loaded = ManualVariableRegistry.load(path)
    assert loaded.entries == registry.entries
    assert loaded.provenance == registry.provenance



@given(st.dictionaries(st.text(st.characters(min_codepoint=97, max_codepoint=122),
                               min_size=1, max_size=5),
                       st.text(min_size=1, max_size=6), max_size=5),
       st.dictionaries(st.text(st.characters(min_codepoint=97, max_codepoint=122),
                               min_size=1, max_size=5),
                       st.text(min_size=1, max_size=6), max_size=5))
@settings(max_examples=80, deadline=None)
def test_stage1_soundness_property(req, resp):
    # a path whose value never appears among the response values is never a candidate
    span = root_span("s0", "GET /p/q/r", req=req, resp=resp)
    candidates = find_intraspan_candidates(span)
    for path in req:
        if req[path] not in resp.values():
            assert path not in candidates


@given(st.lists(st.sampled_from(["alpha", "beta", "gamma"]), min_size=2, max_size=8))
@settings(max_examples=60, deadline=None)
def test_stage2_constant_paths_never_confirmed(values):
    spans = [root_span(f"s{i}", "GET /p/q/r",
                       req={"var": v, "const": "fixed-value"},
                       resp={"var": v, "const": "fixed-value"})
             for i, v in enumerate(values)]
    confirmed = MemberRoots(spans).confirmed()
    assert "const" not in confirmed
    assert ("var" in confirmed) == (len(set(values)) > 1)


def test_templates_file_round_trip(tmp_path, ref_analysis):
    templates = [ref_analysis.templates[c.interface_id]
                 for c in ref_analysis.clusters[:10]]
    path = tmp_path / "templates.jsonl"
    save_templates(templates, path)
    assert any(t.placeholders for t in templates)
    assert load_templates(path) == templates


GOOD_RECORD = {"interface_id": "if0", "trace_id": "t0", "line": "POST /svc/a/b",
               "payload": {"session_id": "f7k9q2"}, "placeholders": {"session_id": "fresh_id"}}


# the old format and unknown kinds are rejected through the CLI in test_cli
@pytest.mark.parametrize("record, message", [
    ({k: v for k, v in GOOD_RECORD.items() if k != "trace_id"}, "missing trace_id"),
    ({**GOOD_RECORD, "payload": ["session_id"]},
     "payload must be an object, got ['session_id']"),
    ({**GOOD_RECORD, "trace_id": 0}, "trace_id must be a string, got 0"),
    ({**GOOD_RECORD, "placeholders": {"other": "fresh_id"}}, "repeated interface_id 'if0'"),
    ({**GOOD_RECORD, "interface_id": "if1", "trace_id": "t1",
      "placeholders": {"other": "fresh_id"}}, "placeholder 'other' is not a payload key"),
    ([1, 2], "expected a JSON object, got list"),
], ids=["missing-field", "payload-list", "trace-id-int", "placeholder-not-in-payload",
        "placeholder-not-in-payload-own-ids", "not-an-object"])
def test_load_templates_rejects_malformed_record(tmp_path, record, message):
    path = tmp_path / "templates.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ValueError) as err:
        load_templates(path)
    assert str(err.value) == f"templates {path} line 2: {message}"
