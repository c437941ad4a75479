from dataclasses import replace

import pytest

from resilitest.faults import parse_catalog
from resilitest.model import Endpoint, trace_to_record, validate_trace
from resilitest.sim.engine import (SimError, System, record_corpus, record_traces,
                                   replay_traffic)
from resilitest.sim.topology import (TopologyError, load_topology,
                                     save_topology, topology_from_record,
                                     topology_to_record)
from resilitest.sim.workload import load_workload, save_workload
from resilitest.templating import EntryRequest

from conftest import make_mini_topology, make_mini_workload

SECOND = 1_000_000


def _mini_request(system, item="item-zz99", note="note-qq88", token=None):
    return EntryRequest(
        f"POST /front/orders/place/{item}",
        {"ts": str(system.now_us), "token": token or f"tk-{system.now_us}",
         "item": item, "note": note})


def _boot(spec, seed=1, record=False):
    system = System(spec, seed, record_traces=record)
    system.run_until(spec.boot_us)
    return system


# --- topology loading --------------------------------------------------------

def test_reference_topology_loads_cleanly(tmp_path, ref_topology):
    path = tmp_path / "topo.json"
    save_topology(ref_topology, path)
    loaded = load_topology(path)
    assert len(loaded.services) >= 8
    assert sum(len(s.interfaces) for s in loaded.services) >= 25
    components = {step.endpoint().component
                  for _svc, iface in loaded.interfaces() for step in iface.workflow}
    assert {"Database", "Cache", "MQ"} <= components
    assert len(loaded.seeded_bugs()) == 10
    flags = sorted(flag for flag, *_ in loaded.seeded_bugs())
    assert flags == sorted(["missing_timeout"] * 2 + ["fire_and_forget"] * 2 +
                           ["no_rollback"] * 2 + ["no_retry"] * 2 +
                           ["swallow_then_succeed"] * 2)


def test_step_calling_undeclared_service_rejected():
    spec = make_mini_topology()
    rec = topology_to_record(spec)
    rec["services"][1]["interfaces"][0]["workflow"][1]["target_service"] = "ghost"
    with pytest.raises(TopologyError, match="undeclared service"):
        topology_from_record(rec)


def test_duplicate_service_name_rejected():
    spec = make_mini_topology()
    rec = topology_to_record(spec)
    rec["services"][0]["name"] = "front"
    with pytest.raises(TopologyError, match="duplicate service"):
        topology_from_record(rec)


def test_async_step_cannot_propagate():
    spec = make_mini_topology()
    rec = topology_to_record(spec)
    rec["services"][1]["interfaces"][0]["workflow"][2]["on_error"] = "propagate"
    with pytest.raises(TopologyError, match="async"):
        topology_from_record(rec)


@pytest.mark.parametrize("where, key, value, least", [
    ("step", "retries", -1, 0),
    ("step", "retries", "1", 0),
    ("step", "retries", True, 0),
    ("step", "timeout_us", 0, 1),
    ("step", "timeout_us", 1.5, 1),
    ("service", "workers", 0, 1),
    ("service", "queue_limit", -1, 0),
    ("topology", "boot_us", -1, 0),
    ("topology", "entry_deadline_us", -1, 1),
    ("topology", "entry_deadline_us", 0, 1),
    ("topology", "validation_skew_us", -1, 0),
])
def test_topology_number_out_of_range_rejected(where, key, value, least):
    rec = topology_to_record(make_mini_topology())
    front = rec["services"][1]
    target = {"step": front["interfaces"][0]["workflow"][1], "service": front,
              "topology": rec}[where]
    target[key] = value
    location = {"step": "front POST /front/orders/place/{item} step 1",
                "service": "front", "topology": "topology mini"}[where]
    with pytest.raises(TopologyError) as excinfo:
        topology_from_record(rec)
    assert str(excinfo.value) == (f"{location}: {key} must be an integer >= {least}, "
                                  f"got {value!r}")


def test_malformed_topology_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(TopologyError, match="malformed JSON"):
        load_topology(path)


def test_bug_free_transform_fixes_every_flag(ref_topology):
    fixed = ref_topology.bug_free()
    assert fixed.seeded_bugs() == []
    # the missing timeout is actually added back
    for svc in fixed.services:
        for iface in svc.interfaces:
            for step in iface.workflow:
                if step.op == "call":
                    assert step.timeout_us is not None


# --- fresh systems ------------------------------------------------------------

def test_same_seed_same_recorded_traces():
    spec = make_mini_topology()
    workload = make_mini_workload(spec)
    first = record_corpus(spec, workload, seed=5)
    second = record_corpus(spec, workload, seed=5)
    assert [trace_to_record(t) for t in first.traces] == \
        [trace_to_record(t) for t in second.traces]


def test_streamed_traces_equal_one_run_to_idle():
    # 1 ms apart, requests overlap and complete out of submission order
    spec = make_mini_topology()
    workload = make_mini_workload(spec, per_interface=6, gap_us=1_000)
    system = System(spec, 5, record_traces=True)
    handles = [system.post_request(request, at_us) for at_us, request in workload]
    system.run_until_idle()
    submitted_in_completion_order = [submitted for _done, submitted, _ok in system._entry_log]
    assert submitted_in_completion_order != sorted(submitted_in_completion_order)
    expected = [trace_to_record(h.trace) for h in handles if h.trace is not None]
    streamed = [trace_to_record(t) for t in record_traces(spec, workload, seed=5)]
    assert streamed == expected
    assert [t["trace_id"] for t in streamed] == sorted(t["trace_id"] for t in streamed)


def _order_request(at_us, token):
    return EntryRequest("POST /front/orders/place/item-zz99",
                        {"ts": str(at_us), "token": token, "item": "item-zz99",
                         "note": "note-qq88"})


def test_streamed_workload_event_tied_with_a_simulator_event_keeps_its_order():
    # a workload entry on the very microsecond a simulator event resumes a
    # workflow: only the sequence numbers order the two events
    spec = make_mini_topology()
    workload = make_mini_workload(spec)
    first = next(t for t in record_traces(spec, workload, seed=5) if len(t.spans) > 1)
    index = int(first.trace_id[1:])
    tie_us = first.spans[1].start_us
    assert workload[index][0] < tie_us < workload[index + 1][0]
    workload.insert(index + 1, (tie_us, _order_request(tie_us, "tk-tie")))
    system = System(spec, 5, record_traces=True)
    handles = [system.post_request(request, at_us) for at_us, request in workload]
    system.run_until_idle()
    expected = [trace_to_record(h.trace) for h in handles if h.trace is not None]
    streamed = [trace_to_record(t) for t in record_traces(spec, workload, seed=5)]
    assert streamed == expected


def test_record_traces_reads_the_workload_as_it_goes():
    spec = make_mini_topology()
    workload = make_mini_workload(spec)
    read = []

    def counting():
        for entry in workload:
            read.append(entry)
            yield entry

    next(record_traces(spec, counting(), seed=5))
    assert len(read) <= 3 < len(workload)


def test_record_traces_rejects_a_workload_out_of_time_order():
    spec = make_mini_topology()
    workload = make_mini_workload(spec)
    workload[1], workload[2] = workload[2], workload[1]
    with pytest.raises(SimError, match="entry 2 .* before the previous one"):
        list(record_traces(spec, workload, seed=5))


def test_handle_usable_immediately():
    system = _boot(make_mini_topology())
    resp, _ = system.submit_request(_mini_request(system))
    assert resp.ok


def test_restart_discards_state():
    spec = make_mini_topology()
    system = _boot(spec)
    resp, _ = system.submit_request(_mini_request(system, token="tk-once"))
    assert resp.ok
    resp2, _ = system.submit_request(_mini_request(system, token="tk-once"))
    assert not resp2.ok  # single-use token replay rejected on the same instance

    fresh = _boot(spec)  # a fresh start forgets the token
    resp3, _ = fresh.submit_request(_mini_request(fresh, token="tk-once"))
    assert resp3.ok


# --- submit_request ----------------------------------------------------------

def test_healthy_request_span_count_is_workflow_plus_nested_plus_root():
    system = _boot(make_mini_topology(), record=True)
    resp, trace = system.submit_request(_mini_request(system))
    assert resp.ok
    # root + insert + call + callee(select) + mq = 5 spans
    assert len(trace.spans) == 5
    assert validate_trace(trace) == []


def test_unknown_interface_becomes_recorded_404():
    system = _boot(make_mini_topology())
    resp, _ = system.submit_request(EntryRequest("GET /nope/nope/nope", {}))
    assert resp.status == "error:not_found"
    metrics = system.entry_metrics((0, system.now_us + 1))
    assert metrics.samples == 1 and metrics.success_rate == 0.0


def test_case1_missing_timeout_hang_and_cascading_stall(catalog):
    spec = make_mini_topology(bug="missing_timeout")
    system = _boot(spec)
    fault = catalog.get("http-socket-timeout")
    system.arm_fault("front", Endpoint("HTTP", "resttemplate", "post"), fault)

    start = system.now_us
    window = replay_traffic(system, lambda at: _mini_request(system, token=f"t{at}"),
                            rate_per_sec=5, start_us=start, duration_us=10 * SECOND)
    metrics = system.entry_metrics(window)
    assert metrics.success_rate == 0.0  # all workers hung, requests time out
    # workers never come back even after disarm
    system.disarm_fault("front", Endpoint("HTTP", "resttemplate", "post"))
    window2 = replay_traffic(system, lambda at: _mini_request(system, token=f"u{at}"),
                             rate_per_sec=5, start_us=system.now_us,
                             duration_us=10 * SECOND)
    assert system.entry_metrics(window2).success_rate == 0.0


def test_case2_fire_and_forget_entry_ok_span_error_message_lost(catalog):
    spec = make_mini_topology(bug="fire_and_forget")
    system = _boot(spec, record=True)
    fault = catalog.get("mq-disconnect")
    system.arm_fault("front", Endpoint("MQ", "kafka", "send"), fault)
    resp, trace = system.submit_request(_mini_request(system))
    assert resp.ok  # still returns success to the caller
    mq_span = next(s for s in trace.spans if s.endpoint.component == "MQ")
    assert mq_span.status == "error:DisconnectException"
    system.run_until_idle()
    window = (0, system.now_us)
    # message absent: the one publish failed and nothing buffered it for retry
    assert system.endpoint_stats("front", Endpoint("MQ", "kafka", "send"), window) == \
        {"invocations": 1, "failures": 1}
    assert system.outbox_pending_from(window) == 0
    assert system.losses_in(window) == 1


def test_healthy_catch_and_degrade_publish_is_durably_retried(catalog):
    spec = make_mini_topology()  # bug-free: mq on_error=catch_and_degrade
    system = _boot(spec)
    fault = catalog.get("mq-disconnect")
    system.arm_fault("front", Endpoint("MQ", "kafka", "send"), fault)
    resp, _ = system.submit_request(_mini_request(system))
    assert resp.ok
    assert system.outbox_pending_from((0, system.now_us + 1)) == 1  # buffered
    system.disarm_fault("front", Endpoint("MQ", "kafka", "send"))
    system.run_until(system.now_us + 3 * SECOND)
    window = (0, system.now_us)
    # the outbox retry published after recovery: one failure, then one success
    assert system.endpoint_stats("front", Endpoint("MQ", "kafka", "send"), window) == \
        {"invocations": 2, "failures": 1}
    assert system.outbox_pending_from(window) == 0
    assert system.losses_in(window) == 0


# --- arm/disarm --------------------------------------------------------------

def test_delay_fault_exceeding_timeout_fails_request(catalog):
    text = "slow comm_latency Database:*:* delay auto\n"
    fault = parse_catalog(text).get("slow")
    spec = make_mini_topology()
    system = _boot(spec)
    system.arm_fault("front", Endpoint("Database", "jdbc", "insert"), fault)
    resp, _ = system.submit_request(_mini_request(system))
    assert resp.status == "error:OperationTimedOut"  # delay 2x timeout, propagate


def test_arm_then_disarm_restores_health(catalog):
    spec = make_mini_topology()
    system = _boot(spec)
    endpoint = Endpoint("Database", "jdbc", "insert")
    system.arm_fault("front", endpoint, catalog.get("db-sql-timeout"))
    resp, _ = system.submit_request(_mini_request(system))
    assert not resp.ok
    system.disarm_fault("front", endpoint)
    resp2, _ = system.submit_request(_mini_request(system))
    assert resp2.ok


def test_arm_scope_is_per_service(catalog):
    spec = make_mini_topology()
    system = _boot(spec)
    # backend has the same component kind; arming front leaves backend alone
    system.arm_fault("front", Endpoint("Database", "jdbc", "insert"),
                     catalog.get("db-sql-timeout"))
    resp, _ = system.submit_request(
        EntryRequest("POST /backend/internal/process", {"key": "kk-1"}))
    assert resp.ok


def test_arm_unknown_endpoint_rejected(catalog):
    system = _boot(make_mini_topology())
    with pytest.raises(SimError, match="not used by service"):
        system.arm_fault("front", Endpoint("Cache", "jedis", "get"),
                         catalog.get("cache-conn-down"))


def test_hits_recorded_per_interception(catalog):
    spec = make_mini_topology()
    system = _boot(spec)
    endpoint = Endpoint("Database", "jdbc", "insert")
    armed = system.arm_fault("front", endpoint, catalog.get("db-sql-timeout"))
    for i in range(3):
        system.submit_request(_mini_request(system, token=f"hit-{i}"))
    assert len(armed.hits) == 3
    assert armed.hits_in((0, system.now_us + 1)) == 3


# --- metrics -----------------------------------------------------------------

def test_metrics_healthy_window_full_success():
    spec = make_mini_topology()
    system = _boot(spec)
    window = replay_traffic(system, lambda at: _mini_request(system, token=f"m{at}"),
                            rate_per_sec=5, start_us=system.now_us,
                            duration_us=4 * SECOND)
    metrics = system.entry_metrics(window)
    assert metrics.samples == 20
    assert metrics.success_rate == 1.0
    assert metrics.p50_us <= metrics.p95_us
    assert metrics.throughput_rps == pytest.approx(5.0)


def test_metrics_all_errors_under_propagating_fault(catalog):
    spec = make_mini_topology()
    system = _boot(spec)
    system.arm_fault("front", Endpoint("Database", "jdbc", "insert"),
                     catalog.get("db-sql-timeout"))
    window = replay_traffic(system, lambda at: _mini_request(system, token=f"e{at}"),
                            rate_per_sec=5, start_us=system.now_us,
                            duration_us=4 * SECOND)
    assert system.entry_metrics(window).success_rate == 0.0


def test_metrics_mixed_window_counts():
    spec = make_mini_topology()
    system = _boot(spec)
    start = system.now_us
    for i in range(7):
        system.submit_request(_mini_request(system, token=f"ok-{i}"))
    for i in range(3):
        system.submit_request(EntryRequest("GET /missing/x/y", {}))
    metrics = system.entry_metrics((start, system.now_us + 1))
    assert metrics.samples == 10
    assert metrics.success_rate == pytest.approx(0.7)


def test_metrics_empty_window_zero_sample_marker():
    system = _boot(make_mini_topology())
    metrics = system.entry_metrics((0, 1))
    assert metrics.samples == 0
    assert metrics.success_rate is None


def test_metrics_window_beyond_elapsed_time_rejected():
    system = _boot(make_mini_topology())
    with pytest.raises(SimError):
        system.entry_metrics((0, system.now_us + SECOND))


def test_entry_metrics_window_includes_lo_and_excludes_hi():
    system = _boot(make_mini_topology())
    completed = []
    for i in range(3):
        system.submit_request(_mini_request(system, token=f"edge-{i}"))
        completed.append(system.now_us)
    first, second, third = completed
    assert first < second < third
    assert system.entry_metrics((first, second)).samples == 1
    assert system.entry_metrics((first, second + 1)).samples == 2
    assert system.entry_metrics((first + 1, third)).samples == 1
    assert system.entry_metrics((first, third + 1)).samples == 3


def _shared_insert_topology():
    """The mini topology with the backend's step turned into the same
    Database:jdbc:insert endpoint the front service uses."""
    spec = make_mini_topology()
    backend = spec.services[0]
    iface = backend.interfaces[0]
    step = replace(iface.workflow[0], method="insert")
    backend = replace(backend, interfaces=(replace(iface, workflow=(step,)),))
    return replace(spec, services=(backend,) + spec.services[1:])


def test_endpoint_stats_keep_units_apart(catalog):
    system = _boot(_shared_insert_topology())
    insert = Endpoint("Database", "jdbc", "insert")
    system.arm_fault("backend", insert, catalog.get("db-sql-timeout"))
    for i in range(4):
        system.submit_request(_mini_request(system, item=f"item-{i}", token=f"u-{i}"))
    window = (0, system.now_us + 1)
    # one endpoint on two services
    assert system.endpoint_stats("backend", insert, window) == \
        {"invocations": 4, "failures": 4}
    assert system.endpoint_stats("front", insert, window) == \
        {"invocations": 4, "failures": 0}
    # endpoints of one service; the failed call aborts the front workflow
    assert system.endpoint_stats("front", Endpoint("HTTP", "resttemplate", "post"),
                                 window) == {"invocations": 4, "failures": 4}
    assert system.endpoint_stats("front", Endpoint("MQ", "kafka", "send"),
                                 window) == {"invocations": 0, "failures": 0}


def test_rearmed_unit_sends_hits_to_the_new_fault_only(catalog):
    system = _boot(make_mini_topology())
    unit = ("front", Endpoint("Database", "jdbc", "insert"))
    fault = catalog.get("db-sql-timeout")
    first = system.arm_fault(*unit, fault)
    system.submit_request(_mini_request(system, token="a-1"))
    system.disarm_fault(*unit)
    system.submit_request(_mini_request(system, token="a-2"))
    second = system.arm_fault(*unit, fault)
    rearmed_at = system.now_us
    system.submit_request(_mini_request(system, token="a-3"))
    system.submit_request(_mini_request(system, token="a-4"))
    assert len(first.hits) == 1
    assert len(second.hits) == 2
    assert all(t >= rearmed_at for t in second.hits)


def test_disarm_of_a_unit_never_armed_does_nothing(catalog):
    system = _boot(make_mini_topology())
    armed = system.arm_fault("front", Endpoint("Database", "jdbc", "insert"),
                             catalog.get("db-sql-timeout"))
    system.disarm_fault("front", Endpoint("MQ", "kafka", "send"))
    system.disarm_fault("backend", Endpoint("Database", "jdbc", "insert"))
    resp, _ = system.submit_request(_mini_request(system, token="n-1"))
    assert len(armed.hits) == 1
    assert not resp.ok


def _front_step_replaced(**changes):
    """The mini topology with the front order workflow's insert step changed."""
    spec = make_mini_topology()
    front = spec.services[1]
    order = front.interfaces[0]
    steps = (replace(order.workflow[0], **changes),) + order.workflow[1:]
    front = replace(front, interfaces=(replace(order, workflow=steps),)
                    + front.interfaces[1:])
    return replace(spec, services=(spec.services[0], front))


@pytest.mark.parametrize("code, ok", [(204, True), (399, True), (400, False),
                                      (503, False)])
def test_status_fault_below_400_is_ok_with_its_body(code, ok):
    fault = parse_catalog(
        f"st comm_manipulated_response HTTP:*:* status {code} canned body\n").get("st")
    system = _boot(make_mini_topology(), record=True)
    call = Endpoint("HTTP", "resttemplate", "post")
    system.arm_fault("front", call, fault)
    resp, trace = system.submit_request(_mini_request(system))
    span = next(s for s in trace.spans if s.endpoint == call)
    assert span.response_payload == {"status": str(code), "body": "canned body"}
    assert resp.ok is ok
    assert span.status == ("ok" if ok else f"error:http_{code}")
    stats = system.endpoint_stats("front", call, (0, system.now_us + 1))
    assert stats == {"invocations": 1, "failures": 0 if ok else 1}


def test_no_retry_connection_failure_outlives_the_fault_until_restart(catalog):
    spec = _front_step_replaced(bug="no_retry")
    insert = Endpoint("Database", "jdbc", "insert")
    system = _boot(spec)
    armed = system.arm_fault("front", insert, catalog.get("db-conn-transient"))
    resp, _ = system.submit_request(_mini_request(system, token="p-1"))
    assert resp.status == "error:SQLTransientConnectionException"
    system.disarm_fault("front", insert)
    for i in range(2):
        resp, _ = system.submit_request(_mini_request(system, token=f"p-{i + 2}"))
        assert resp.status == "error:SQLTransientConnectionException"
    assert len(armed.hits) == 1
    assert system.endpoint_stats("front", insert, (0, system.now_us + 1)) == \
        {"invocations": 3, "failures": 3}
    fresh = _boot(spec)
    resp, _ = fresh.submit_request(_mini_request(fresh, token="p-4"))
    assert resp.ok


def test_step_with_one_retry_makes_two_attempts_under_a_throw(catalog):
    system = _boot(_front_step_replaced(retries=1), record=True)
    insert = Endpoint("Database", "jdbc", "insert")
    armed = system.arm_fault("front", insert, catalog.get("db-sql-timeout"))
    resp, trace = system.submit_request(_mini_request(system))
    assert resp.status == "error:SQLTimeoutException"
    assert len(armed.hits) == 2 and armed.hits[0] < armed.hits[1]
    assert system.endpoint_stats("front", insert, (0, system.now_us + 1)) == \
        {"invocations": 2, "failures": 2}
    assert sum(1 for s in trace.spans if s.endpoint == insert) == 1


def _delayed_insert():
    """A booted mini system whose front insert stalled 300 ms on one request;
    returns (system, the insert's start time)."""
    fault = parse_catalog("slow comm_latency Database:*:* delay 300ms\n").get("slow")
    system = _boot(make_mini_topology())
    armed = system.arm_fault("front", Endpoint("Database", "jdbc", "insert"), fault)
    resp, _ = system.submit_request(_mini_request(system))
    assert resp.ok
    (start,) = armed.hits
    assert system.now_us > start + 300_000
    return system, start


def test_endpoint_stats_leave_out_a_call_started_before_the_window():
    system, start = _delayed_insert()
    insert = Endpoint("Database", "jdbc", "insert")
    # the insert completed inside [start + 1, now], but started before it
    assert system.endpoint_stats("front", insert, (start + 1, system.now_us + 1)) == \
        {"invocations": 0, "failures": 0}
    assert system.endpoint_stats("front", insert, (start, system.now_us + 1)) == \
        {"invocations": 1, "failures": 0}


def test_endpoint_stats_count_a_call_completed_after_the_window():
    system, start = _delayed_insert()
    insert = Endpoint("Database", "jdbc", "insert")
    # the insert started in [start, start + 1) and completed ~300 ms later
    assert system.endpoint_stats("front", insert, (start, start + 1)) == \
        {"invocations": 1, "failures": 0}
    assert system.endpoint_stats("front", insert, (start - 1, start)) == \
        {"invocations": 0, "failures": 0}


def test_forget_before_keeps_later_windows_and_rejects_earlier_ones():
    spec = make_mini_topology()
    system = _boot(spec)
    insert = Endpoint("Database", "jdbc", "insert")

    def make_request(at_us):
        return _order_request(at_us, f"tk-{at_us}")

    first = replay_traffic(system, make_request, 5, spec.boot_us, SECOND)
    second = replay_traffic(system, make_request, 5, first[1], SECOND)
    queries = (system.entry_metrics, system.losses_in, system.outbox_pending_from,
               lambda window: system.endpoint_stats("front", insert, window))
    kept = [query(second) for query in queries]
    logged = len(system._entry_log)
    system.forget_before(second[0])
    assert len(system._entry_log) < logged
    assert [query(second) for query in queries] == kept
    assert kept[0].samples == 5 and kept[3]["invocations"] == 5
    for query in queries:
        with pytest.raises(SimError, match="records before which were dropped"):
            query(first)
        with pytest.raises(SimError, match="records before which were dropped"):
            query((second[0] - 1, second[1]))


def test_conservation_invocations_equal_recorded_spans():
    spec = make_mini_topology()
    workload = make_mini_workload(spec)
    system = System(spec, 3, record_traces=True)
    handles = [system.post_request(req, at) for at, req in workload]
    system.run_until_idle()
    per_endpoint = {}
    for handle in handles:
        for span in handle.trace.spans:
            if span.endpoint.framework == "server":
                continue
            key = (span.service, span.endpoint)
            per_endpoint[key] = per_endpoint.get(key, 0) + 1
    units = {(svc.name, step.endpoint()) for svc, iface in spec.interfaces()
             for step in iface.workflow}
    window = (0, system.now_us + 1)
    invocations = {unit: system.endpoint_stats(*unit, window)["invocations"]
                   for unit in units}
    assert {k: v for k, v in invocations.items() if v} == per_endpoint


def test_workload_file_round_trip(tmp_path):
    spec = make_mini_topology()
    workload = make_mini_workload(spec)
    path = tmp_path / "workload.jsonl"
    save_workload(workload, path)
    assert list(load_workload(path)) == workload


def test_shipped_assets_match_their_builders(tmp_path):
    # the committed files under resilitest/assets are byte-for-byte what the
    # deterministic builders produce
    import filecmp
    from importlib import resources

    from reference_system import write_reference_assets

    paths = write_reference_assets(tmp_path)
    assets = resources.files("resilitest.assets")
    for _name, path in sorted(paths.items()):
        committed = assets.joinpath(path.split("/")[-1])
        assert filecmp.cmp(path, str(committed), shallow=False), path


def test_shipped_assets_load_as_the_builders_output(ref_topology, ref_topology_bugfree,
                                                     ref_workload, ref_registry):
    # the suite's fixtures load the shipped files; they are the builder's objects
    from reference_system import build_reference_topology, build_signature_registry
    from resilitest.refassets import build_reference_workload

    built = build_reference_topology()
    assert ref_topology == built
    assert ref_topology_bugfree == built.bug_free()
    assert ref_workload == build_reference_workload(built)
    assert ref_registry.entries == build_signature_registry(built).entries
