import os

import pytest

from resilitest.campaign import analyze_corpus
from resilitest.faults import default_catalog
from resilitest.model import Endpoint, Span, Trace
from resilitest.sim.engine import record_corpus
from resilitest.sim.topology import (FieldSpec, InterfaceSpec, RespField,
                                     ServiceSpec, Step, TopologySpec,
                                     load_topology, validate_topology)
from resilitest.sim.workload import load_workload
from resilitest.templating import ManualVariableRegistry

REF_SEED = 7
ASSETS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "src", "resilitest", "assets")
REF_TOPOLOGY = os.path.join(ASSETS, "reference_topology.json")
REF_TOPOLOGY_BUGFREE = os.path.join(ASSETS, "reference_topology_bugfree.json")
REF_WORKLOAD = os.path.join(ASSETS, "reference_workload.jsonl")
REF_REGISTRY = os.path.join(ASSETS, "reference_registry.txt")


@pytest.fixture(scope="session")
def ref_topology():
    return load_topology(REF_TOPOLOGY)


@pytest.fixture(scope="session")
def ref_topology_bugfree():
    return load_topology(REF_TOPOLOGY_BUGFREE)


@pytest.fixture(scope="session")
def ref_workload():
    return list(load_workload(REF_WORKLOAD))


@pytest.fixture(scope="session")
def ref_corpus(ref_topology, ref_workload):
    return record_corpus(ref_topology, ref_workload, seed=REF_SEED)


@pytest.fixture(scope="session")
def ref_registry():
    return ManualVariableRegistry.load(REF_REGISTRY)


@pytest.fixture(scope="session")
def ref_analysis(ref_corpus, ref_registry):
    return analyze_corpus(ref_corpus, registry=ref_registry)


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


def make_span(span_id, parent, service="svc", component="Database",
              framework="jdbc", method="select", op="db.select t", req=None,
              resp=None, status="ok", start=0, dur=100):
    return Span(span_id=span_id, parent_id=parent, service=service,
                endpoint=Endpoint(component, framework, method),
                operation_name=op, request_payload=req or {},
                response_payload=resp or {}, status=status,
                start_us=start, duration_us=dur)


def make_trace(trace_id, spans):
    return Trace(trace_id=trace_id, spans=tuple(spans), root=spans[0].span_id)


def span_to_record(span):
    return {
        "id": span.span_id,
        "parent": span.parent_id,
        "service": span.service,
        "endpoint": {
            "component": span.endpoint.component,
            "framework": span.endpoint.framework,
            "method": span.endpoint.method,
        },
        "op": span.operation_name,
        "req": span.request_payload,
        "resp": span.response_payload,
        "status": span.status,
        "start_us": span.start_us,
        "dur_us": span.duration_us,
    }


def trace_to_record(trace):
    """The corpus record of `trace`, which save_corpus writes."""
    return {
        "trace_id": trace.trace_id,
        "root": trace.root,
        "spans": [span_to_record(s) for s in trace.spans],
    }


def root_span(span_id="s0", line="GET /svc/a/b", req=None, resp=None,
              service="svc", start=0, dur=10_000, method="get"):
    return make_span(span_id, None, service=service, component="HTTP",
                     framework="server", method=method, op=line, req=req,
                     resp=resp, start=start, dur=dur)


def make_mini_topology(bug=""):
    """Two-service topology for fast executor/CLI tests; `bug` optionally
    plants one flag on the front service's second step."""
    backend = ServiceSpec(name="backend", interfaces=(
        InterfaceSpec(
            method="POST", uri_template="/backend/internal/process",
            fields=(FieldSpec(path="key", kind="data"),),
            resp_fields=(RespField("ref", "derive:key"),),
            workflow=(Step(op="db", method="select", framework="jdbc",
                           table="backend_main", args=(("key", "req.key"),)),)),
    ))
    front_steps = [
        Step(op="db", method="insert", framework="jdbc", table="front_main",
             args=(("key", "req.item"), ("val", "req.note"))),
        Step(op="call", method="post", framework="resttemplate", component="HTTP",
             target_service="backend", target_line="POST /backend/internal/process",
             args=(("key", "req.item"),)),
        Step(op="mq", method="send", framework="kafka", topic="front-events",
             args=(("fid", "req.item"),), async_step=True,
             on_error="catch_and_degrade"),
    ]
    if bug == "missing_timeout":
        front_steps[1] = Step(op="call", method="post", framework="resttemplate",
                              component="HTTP", target_service="backend",
                              target_line="POST /backend/internal/process",
                              args=(("key", "req.item"),), timeout_us=None,
                              bug="missing_timeout")
    elif bug == "fire_and_forget":
        front_steps[2] = Step(op="mq", method="send", framework="kafka",
                              topic="front-events", args=(("fid", "req.item"),),
                              async_step=True, on_error="ignore",
                              bug="fire_and_forget")
    elif bug == "swallow_then_succeed":
        front_steps[0] = Step(op="db", method="insert", framework="jdbc",
                              table="front_main",
                              args=(("key", "req.item"), ("val", "req.note")),
                              on_error="ignore", bug="swallow_then_succeed")
    front = ServiceSpec(name="front", interfaces=(
        InterfaceSpec(
            method="POST", uri_template="/front/orders/place/{item}",
            fields=(
                FieldSpec(path="ts", kind="timestamp", validate="fresh_window", echo=True),
                FieldSpec(path="token", kind="session", validate="single_use", echo=True),
                FieldSpec(path="item", kind="data"),
                FieldSpec(path="note", kind="data"),
            ),
            resp_fields=(RespField("order_ref", "token"),),
            workflow=tuple(front_steps)),
        InterfaceSpec(
            method="GET", uri_template="/front/health/live",
            fields=(FieldSpec(path="ts", kind="timestamp", validate="fresh_window", echo=True),),
            resp_fields=(RespField("state", "lit:up"),),
            workflow=()),
    ))
    spec = TopologySpec(name="mini", seed=11, services=(backend, front),
                        boot_us=1_000_000)
    validate_topology(spec)
    return spec


def make_mini_workload(spec, per_interface=4, gap_us=400_000):
    from resilitest.templating import EntryRequest

    entries = []
    at = spec.boot_us + 500_000
    counter = 0
    items = ["item-aa01", "item-bb02", "item-cc03", "item-dd04"]
    notes = ["note-xx01", "note-yy02", "note-zz03", "note-ww04"]
    for svc in spec.services:
        for iface in svc.interfaces:
            for k in range(per_interface):
                counter += 1
                payload = {}
                path = iface.uri_template
                for f in iface.fields:
                    if f.kind == "timestamp":
                        payload[f.path] = str(at)
                    elif f.kind == "session":
                        payload[f.path] = f"tk-{counter:06d}"
                    elif f.path == "item":
                        payload[f.path] = items[k % len(items)]
                    elif f.path == "note":
                        payload[f.path] = notes[k % len(notes)]
                    else:
                        payload[f.path] = f"v-{counter:06d}"
                for segment in iface.uri_template.split("/")[1:]:
                    if segment.startswith("{"):
                        path = path.replace(segment, payload.get(segment[1:-1], "x"))
                entries.append((at, EntryRequest(f"{iface.method} {path}", payload)))
                at += gap_us
    return entries
