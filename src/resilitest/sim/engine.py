"""Deterministic virtual-time discrete-event execution of a topology.

Every workflow execution (an entry request or an internal call) is one
generator process driven by a single event loop, so arbitrarily many
requests overlap in virtual time while execution stays bit-reproducible for
a given (topology, seed, workload). The generator runs all of its steps and
retries itself; to wait it yields a plain number of microseconds, and the
loop puts the suspended generator on the event heap to resume it then. The
heap holds three kinds of item: a suspended workflow, an entry handle (its
arrival, then its deadline) and a call record (its timeout).
Services have fixed worker pools and bounded queues, which is what makes
thread-exhaustion cascades expressible. A buffered publish is a process of
its own that retries until its endpoint takes it. Stores, the outbox of
pending publishes and armed faults are plain in-memory state that vanishes
with the system handle.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from types import GeneratorType
from typing import Optional

from ..faults import (DEFAULT_DELAY_US, EFFECT_DELAY, EFFECT_STATUS, EFFECT_THROW,
                      Effect, FaultSpec)
from ..model import (Corpus, Endpoint, dumps_canonical, new_corpus, span_status,
                     trace_from_record)
from ..templating import EntryRequest
from .topology import (ARG_LIT, ARG_REQ, BUG_NO_RETRY, ON_ERROR_CATCH,
                       ON_ERROR_PROPAGATE, OP_CALL, OP_CACHE, OP_DB, OP_MQ,
                       TopologySpec, VALIDATE_FRESH)

SECOND_US = 1_000_000

# Base virtual service times per step kind; each execution jitters +-25%.
_BASE_TIME_US = {OP_DB: 2000, OP_CACHE: 400, OP_MQ: 600}
_CALL_OVERHEAD_US = 800
_ENTRY_OVERHEAD_US = 300
_THROW_LATENCY_US = 100
_OUTBOX_RETRY_US = 500_000
# base -> (base - spread, n, bits): the draw of randrange(-spread, spread + 1),
# spread = base // 4, is base - spread + the first getrandbits(bits) below n
_JITTER = {base: (base - base // 4, base // 4 * 2 + 1, (base // 4 * 2 + 1).bit_length())
           for base in (*_BASE_TIME_US.values(), _CALL_OVERHEAD_US, _ENTRY_OVERHEAD_US)}

# "No response from the dependency": with a timeout the client errors at the
# timeout, without one the worker blocks forever.
HANG_EXCEPTIONS = frozenset({"SocketTimeoutException"})

_TIMEOUT = object()  # sentinel resuming a caller whose call timed out
_COMPLETE_US = itemgetter(0)  # of an entry-log or endpoint-event record
# Entry i of a workload posted lazily in time order (post_request's `index`)
# takes the sequence numbers 2i+1 and 2i+2 above this base: below every other
# event's, as if the whole workload were posted before any other event.
_WORKLOAD_SEQ_BASE = -(1 << 62)
_FORGET_EVERY = 1024  # workload entries between record_traces' forget_before calls


def is_connection_exception(name: str) -> bool:
    return "Connection" in name or name == "DisconnectException"


class SimError(ValueError):
    pass


class RejectedEntry(SimError):
    """Workload entry `index`, which no service took, so that it has no trace."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"workload entry {index}: {reason}")
        self.index, self.reason = index, reason


@dataclass
class Response:
    exc: str  # the failure code, "" for success
    payload: dict

    @property
    def ok(self) -> bool:
        return not self.exc

    @property
    def status(self) -> str:
        return span_status(self.exc)


@dataclass
class ArmedFault:
    fault: FaultSpec
    hits: list = field(default_factory=list)  # interception times (us)

    def hits_in(self, window: tuple) -> int:
        lo, hi = window
        return sum(1 for t in self.hits if lo <= t < hi)


class EntryHandle:
    """Completion state of one submitted entry request."""

    __slots__ = ("request", "submitted_us", "accepted", "completed", "response", "trace",
                 "_recorder", "losses")

    def __init__(self, request: EntryRequest, submitted_us: int):
        self.request = request
        self.submitted_us = submitted_us
        self.accepted = False  # its arrival event has run
        self.completed = False
        self.response: Optional[Response] = None
        self.trace: Optional[dict] = None  # the recorded trace's corpus record
        self._recorder = None
        self.losses = 0  # failed non-best-effort writes an ok answer would hide


class _Recorder:
    """The ID and spans of one trace, each span kept as its corpus record."""

    __slots__ = ("trace_id", "spans")

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []

    def open_span(self, parent, service, endpoint, op, req, start_us) -> dict:
        span = {"id": f"s{len(self.spans)}", "parent": parent, "service": service,
                "endpoint": {"component": endpoint.component, "framework": endpoint.framework,
                             "method": endpoint.method},
                "op": op, "req": req, "resp": {}, "status": None,
                "start_us": start_us, "dur_us": None}
        self.spans.append(span)
        return span

    def close_span(self, span: dict, status: str, resp: dict, now_us: int) -> None:
        span["status"] = status
        span["resp"] = resp
        span["dur_us"] = now_us - span["start_us"]

    def build(self, root_id: str, now_us: int) -> dict:
        """The trace's corpus record. A span still open ends now, incomplete,
        in a copy, so that the record does not change when it closes later."""
        spans = [span if span["dur_us"] is not None else
                 {**span, "status": span_status("incomplete"),
                  "dur_us": now_us - span["start_us"]}
                 for span in self.spans]
        return {"trace_id": self.trace_id, "root": root_id, "spans": spans}


class _ServiceState:
    __slots__ = ("spec", "busy", "queue")

    def __init__(self, spec):
        self.spec = spec
        self.busy = 0
        self.queue = deque()


class _Unit:
    """A (service, endpoint) of one system: the fault armed there, if any, and
    its calls [(complete_us, start_us, ok), ...] in completion order."""

    __slots__ = ("armed", "events")

    def __init__(self):
        self.armed = None
        self.events = []


class _Site:
    """One step of a (service, interface) in one system: its unit, the throw
    Effect poisoning it, its _JITTER triple, its store, table and write class,
    and, for a call once it has run, its target: (_ServiceState, interface,
    sites) of the callee, or () when the target lacks the line."""

    __slots__ = ("step", "unit", "poisoned", "jitter", "store", "table", "write", "target")

    def __init__(self, step, unit, stores):
        self.step, self.unit, self.poisoned, self.target = step, unit, None, None
        self.jitter = _JITTER[_CALL_OVERHEAD_US if step.op == OP_CALL
                              else _BASE_TIME_US[step.op]]
        self.store, self.table = stores.get(step.op), step.table or step.topic
        self.write = ("delete" if step.method == "delete" else  # "" for a read
                      "write" if step.method in ("insert", "update", "set") else "")


class _Call:
    """An internal call in flight: the caller's suspended workflow, resumed
    once, by the callee's answer or by the call's timeout, whichever is first."""

    __slots__ = ("proc", "done")

    def __init__(self, proc):
        self.proc = proc
        self.done = False


class _Ctx:
    """One workflow execution (entry request or internal call); its waiter
    is the EntryHandle it answers, or the _Call."""

    __slots__ = ("service", "iface", "sites", "payload", "entry", "parent_span",
                 "outputs", "journal", "waiter")

    def __init__(self, service, iface, sites, payload, entry, parent_span, waiter):
        self.service = service
        self.iface = iface
        self.sites = sites
        self.payload = payload
        self.entry = entry
        self.parent_span = parent_span
        self.outputs = []
        self.journal = []
        self.waiter = waiter


def _derive_token(prefix: str, value) -> str:
    """A token derived from a payload value; a value that is not a string
    derives from its JSON text."""
    if value.__class__ is not str:
        value = dumps_canonical(value)
    return prefix + hashlib.sha1(value.encode("utf-8")).hexdigest()[:10]


class System:
    """A fresh, isolated instance of the topology under virtual time."""

    def __init__(self, spec: TopologySpec, seed: int, record_traces: bool = False):
        self.spec = spec
        self.record_traces = record_traces
        self.now_us = 0
        self.boot_complete_us = spec.boot_us
        self._heap = []
        self._evseq = 0
        self._rng = random.Random(f"system:{seed}")
        self._services = {s.name: _ServiceState(s) for s in spec.services}
        self._db = {}
        self._cache = {}
        self._outbox = []  # creation times of the publishes not yet delivered
        self._units = {unit: _Unit() for unit in spec.units}
        # request line -> (_ServiceState, interface, a _Site per step) of the
        # interface spec.route gives it, or () for none; an interface's sites
        # are shared by every line routed to it
        self._routes = {}
        self._tokens = {}  # (prefix, string) -> _derive_token's token
        self._single_use_seen = set()
        # (complete_us, submitted_us, ok, silent losses), appended in
        # completion order, so sorted by complete_us since now_us never goes down
        self._entry_log = []
        self._kept_from_us = -math.inf  # forget_before dropped the records before
        self._fresh_counter = 0
        self._trace_counter = 0

    # -- event loop -----------------------------------------------------------

    def _run_events(self, until_us) -> None:
        """Run each event due by `until_us`, in order: resume a suspended
        workflow, time out a call not yet answered, or accept an entry, then
        meet its deadline if it is still unanswered."""
        heap, heappop, heappush = self._heap, heapq.heappop, heapq.heappush
        while heap and heap[0][0] <= until_us:
            at, _seq, item = heappop(heap)
            self.now_us = at
            cls = item.__class__
            if cls is GeneratorType:
                try:
                    instr = item.send(None)
                except StopIteration:
                    continue
                if instr.__class__ is int and instr >= 0:  # the common wait
                    self._evseq += 1
                    heappush(heap, (at + instr, self._evseq, item))
                else:
                    self._follow(item, instr)
            elif cls is _Call:
                if not item.done:
                    item.done = True
                    self._drive(item.proc, _TIMEOUT)
            elif not item.accepted:
                self._accept_entry(item)
            elif not item.completed:
                self._finish_entry(item, Response("deadline_exceeded", {"status": "timeout"}),
                                   None)

    def run_until(self, t_us: int) -> None:
        self._run_events(t_us)
        if t_us > self.now_us:
            self.now_us = t_us

    def run_until_idle(self) -> None:
        self._run_events(math.inf)

    def close(self) -> None:
        """Drop the pending events and queued work, whose suspended workflows
        refer back to this system: it is then freed without a cycle collection."""
        self._heap.clear()
        for state in self._services.values():
            state.queue.clear()

    # -- request intake -------------------------------------------------------

    def post_request(self, request: EntryRequest, at_us: Optional[int] = None,
                     index: Optional[int] = None) -> EntryHandle:
        """Schedule the arrival of `request` at `at_us` (now by default, never
        before now) and its entry deadline. `index` marks the request as
        entry `index` of a workload posted lazily in time order: its two
        events then sort as if the whole workload had been posted first."""
        at = self.now_us if at_us is None else max(at_us, self.now_us)
        handle = EntryHandle(request, at)
        if self.record_traces:  # a recorded trace is numbered in posting order
            handle._recorder = _Recorder(f"t{self._trace_counter:06d}")
            self._trace_counter += 1
        if index is None:
            accept_seq = self._evseq + 1
            self._evseq += 2
        else:
            accept_seq = _WORKLOAD_SEQ_BASE + 2 * index + 1
        heapq.heappush(self._heap, (at, accept_seq, handle))
        heapq.heappush(self._heap, (at + self.spec.entry_deadline_us, accept_seq + 1, handle))
        return handle

    def submit_request(self, request: EntryRequest) -> tuple:
        """Blocking submit: runs virtual time forward, one instant at a time,
        until this request completes; returns (Response, recorded Trace or None)."""
        handle = self.post_request(request)
        while not handle.completed and self._heap:
            self._run_events(self._heap[0][0])
        if not handle.completed:
            raise SimError("request never completed (event queue drained)")
        return handle.response, handle.trace and trace_from_record(handle.trace, {})

    def _route(self, line: str) -> tuple:
        """self._routes[line], built on first use."""
        route = self._routes.get(line)
        if route is None:
            served = self.spec.route(line)
            if served is None:
                route = ()
            elif line != served[1].line:
                route = self._route(served[1].line)
            else:
                service, iface = served
                stores = {OP_DB: self._db, OP_CACHE: self._cache}  # an mq step has none
                route = (self._services[service.name], iface, tuple(
                    _Site(step, self._units[(service.name, step.endpoint())], stores)
                    for step in iface.workflow))
            self._routes[line] = route
        return route

    def _accept_entry(self, handle: EntryHandle) -> None:
        handle.accepted = True
        route = self._route(handle.request.line)
        if not route:
            self._finish_entry(handle, Response("not_found", {"status": "not_found"}), None)
            return
        state, iface, sites = route
        reject = self._validate_entry(iface, handle.request.payload)
        if reject:
            self._finish_entry(handle, Response(f"validation_{reject}",
                                                {"status": "rejected", "reason": reject}), None)
            return
        root_span = None
        if handle._recorder is not None:
            root_span = handle._recorder.open_span(
                None, state.spec.name, Endpoint("HTTP", "server", iface.method.lower()),
                handle.request.line, dict(handle.request.payload), self.now_us)
        ctx = _Ctx(state.spec.name, iface, sites, dict(handle.request.payload), handle,
                   root_span, handle)
        if not self._admit(state, ctx):
            self._finish_entry(handle, Response("overload", {"status": "overload"}), root_span)

    def _validate_entry(self, iface, payload) -> str:
        for path, validate in iface.checks:
            value = payload.get(path)
            if validate == VALIDATE_FRESH:
                try:
                    ts = int(value)
                except (TypeError, ValueError, OverflowError):  # inf overflows
                    return f"bad_timestamp_{path}"
                if abs(ts - self.now_us) > self.spec.validation_skew_us:
                    return f"stale_{path}"
            else:  # single use
                if not value:
                    return f"missing_{path}"
                if value in self._single_use_seen:
                    return f"reused_{path}"
                self._single_use_seen.add(value)
        return ""

    def _finish_entry(self, handle: EntryHandle, response: Response,
                      root_span: Optional[dict]) -> None:
        if handle.completed:
            return
        handle.completed = True
        handle.response = response
        # an ok answer that hid failed non-best-effort writes is a silent loss
        self._entry_log.append((self.now_us, handle.submitted_us, response.ok,
                                handle.losses if response.ok else 0))
        if handle._recorder is not None and handle._recorder.spans:
            if root_span is not None:
                handle._recorder.close_span(root_span, response.status,
                                            dict(response.payload), self.now_us)
            root_id = handle._recorder.spans[0]["id"]
            handle.trace = handle._recorder.build(root_id, self.now_us)
        handle._recorder = None  # spans recorded after completion join no trace

    # -- service admission ----------------------------------------------------

    def _admit(self, state: _ServiceState, ctx: _Ctx) -> bool:
        """Start `ctx` on a free worker of `state`, else queue it; False when
        the queue is full too."""
        if state.busy < state.spec.workers:
            self._start_work(state, ctx)
        elif len(state.queue) < state.spec.queue_limit:
            state.queue.append(ctx)
        else:
            return False
        return True

    def _start_work(self, state: _ServiceState, ctx: _Ctx) -> None:
        """Take a worker, and start the workflow after the entry overhead."""
        state.busy += 1
        self._evseq += 1
        heapq.heappush(self._heap, (self.now_us + self._jitter(_ENTRY_OVERHEAD_US),
                                    self._evseq, self._workflow(state, ctx)))

    def _release(self, state: _ServiceState) -> None:
        state.busy -= 1
        while state.queue and state.busy < state.spec.workers:
            ctx = state.queue.popleft()
            if ctx.waiter.__class__ is EntryHandle and ctx.waiter.completed:
                continue
            self._start_work(state, ctx)
            break

    def _drive(self, proc, value=None) -> None:
        try:
            instr = proc.send(value)
        except StopIteration:
            return
        self._follow(proc, instr)

    def _follow(self, proc, instr) -> None:
        """Carry out the instruction `proc` yielded: a wait (in us) or a call
        (site, payload, span, entry)."""
        if instr.__class__ is not tuple:
            if instr < 0:
                raise SimError(f"cannot wait a negative time ({instr} us)")
            self._evseq += 1
            heapq.heappush(self._heap, (self.now_us + instr, self._evseq, proc))
            return
        site, payload, span, entry = instr
        target = site.target
        if target is None:  # a line its target service does not serve is not found
            target = self._route(site.step.target_line)
            if target and target[0].spec.name != site.step.target_service:
                target = ()
            site.target = target
        call = _Call(proc)
        if not target:
            self._resume(call, Response("not_found", {}))
        else:
            # an internal call shares the entry's recorder and loss accounting
            state, iface, sites = target
            if not self._admit(state, _Ctx(state.spec.name, iface, sites, payload, entry,
                                           span, call)):
                self._resume(call, Response("overload", {"status": "overload"}))
        timeout = site.step.timeout_us
        if timeout is not None:
            self._evseq += 1
            heapq.heappush(self._heap, (self.now_us + timeout, self._evseq, call))

    def _resume(self, call: _Call, value) -> None:
        """Resume the caller of `call` with `value`, unless it was resumed."""
        if not call.done:
            call.done = True
            self._drive(call.proc, value)

    # -- workflow execution ---------------------------------------------------

    def _workflow(self, state: _ServiceState, ctx: _Ctx):
        """Run every step of `ctx`, with its retries, in this one process.
        Each attempt ends in a failure code `exc` ("" for success) and a
        payload."""
        service, entry, request, outputs = ctx.service, ctx.entry, ctx.payload, ctx.outputs
        recorder = entry._recorder
        getrandbits = self._rng.getrandbits
        for site in ctx.sites:
            step, unit = site.step, site.unit
            args = {}
            for name, ref, value in step.arg_plan:
                if ref is ARG_REQ:
                    args[name] = request.get(value, "")
                elif ref is ARG_LIT:
                    args[name] = value
                else:
                    args[name] = (outputs[ref] if ref < len(outputs) else {}).get(value, "")
            timeout = step.timeout_us
            span = None
            if recorder is not None:
                op_name = (f"call {step.target_service} {step.target_line}"
                           if step.op == OP_CALL else
                           f"{step.op}.{step.method} {site.table}")
                span = recorder.open_span(
                    ctx.parent_span["id"] if ctx.parent_span else None,
                    service, step.endpoint(), op_name, args, self.now_us)

            for _attempt in range(step.retries + 1):
                start = self.now_us
                # a poisoned step fails before the armed fault sees it
                effect = site.poisoned
                if effect is None:
                    armed = unit.armed
                    if armed is not None:
                        armed.hits.append(start)
                        effect = armed.fault.effect
                kind = effect.kind if effect is not None else None
                delay = 0
                if kind == EFFECT_DELAY:
                    delay = effect.delay_us
                    if delay is None:
                        delay = 2 * timeout if timeout is not None else DEFAULT_DELAY_US

                if kind == EFFECT_THROW:
                    exc, payload = effect.exception, {}
                    if exc in HANG_EXCEPTIONS:
                        if timeout is None:  # the worker is leaked: never answers
                            unit.events.append((start, start, False))
                            return
                        yield timeout
                    else:
                        yield _THROW_LATENCY_US
                elif kind == EFFECT_STATUS:
                    yield self._jitter(_CALL_OVERHEAD_US)
                    exc = f"http_{effect.status_code}"  # the catalog's codes are 400-599
                    payload = {"status": str(effect.status_code), "body": effect.body}
                elif delay and timeout is not None and timeout < delay:
                    yield timeout
                    exc, payload = "OperationTimedOut", {}
                else:
                    if delay:
                        yield delay  # dependency stalls, then behaves normally
                    low, n, bits = site.jitter  # _jitter's draw, inline
                    r = getrandbits(bits)
                    while r >= n:
                        r = getrandbits(bits)
                    yield low + r
                    if step.op == OP_CALL:
                        resp = yield site, dict(args), span, entry
                        if resp is _TIMEOUT:
                            exc, payload = "SocketTimeoutException", {}
                        else:
                            exc, payload = resp.exc, dict(resp.payload)
                    else:
                        exc, payload = "", self._apply_leaf(ctx, site, args)
                unit.events.append((self.now_us, start, not exc))
                if not exc:
                    break

            if span is not None:
                recorder.close_span(span, span_status(exc), payload, self.now_us)
            outputs.append(payload)
            if not exc:
                continue
            # a no-retry client never re-establishes a dropped connection:
            # the step keeps failing until the system is restarted
            if (step.bug == BUG_NO_RETRY and step.retries == 0
                    and is_connection_exception(exc)):
                site.poisoned = Effect(EFFECT_THROW, exception=exc)
            if step.on_error == ON_ERROR_PROPAGATE:
                if ctx.iface.compensate:
                    self._rollback(ctx)
                response = Response(exc, {"status": "error", "reason": exc})
                break
            if step.op == OP_MQ and step.on_error == ON_ERROR_CATCH:
                # durable retry: the publish is buffered, not lost
                self._drive(self._publish(unit))
            elif step.is_write() and not step.best_effort:
                entry.losses += 1
        else:
            response = Response("", self._render_response(ctx))
        if ctx.waiter.__class__ is _Call:
            self._resume(ctx.waiter, response)
        else:
            self._finish_entry(ctx.waiter, response, ctx.parent_span)
        self._release(state)

    def _render_response(self, ctx: _Ctx) -> dict:
        payload = {"status": "ok"}
        request = ctx.payload
        for path in ctx.iface.echo_paths:
            if path in request:
                payload[path] = request[path]
        for path, kind, arg in ctx.iface.resp_plan:
            if kind == "lit":
                payload[path] = arg
            elif kind == "echo":
                payload[path] = request.get(arg, "")
            elif kind == "derive":
                payload[path] = self._derive("d", request.get(arg, ""))
            else:  # a fresh token
                self._fresh_counter += 1
                payload[path] = f"srv{self._fresh_counter:08d}"
        return payload

    def _derive(self, prefix: str, value) -> str:
        """_derive_token(prefix, value), remembered for a string value until
        the next forget_before."""
        if value.__class__ is not str:
            return _derive_token(prefix, value)
        token = self._tokens.get((prefix, value))
        if token is None:
            token = self._tokens[(prefix, value)] = _derive_token(prefix, value)
        return token

    def _jitter(self, base_us: int) -> int:
        low, n, bits = _JITTER[base_us]
        # randrange(-spread, spread + 1)'s draw: the same rejection loop on getrandbits
        r = self._rng.getrandbits(bits)
        while r >= n:
            r = self._rng.getrandbits(bits)
        return low + r

    def _apply_leaf(self, ctx: _Ctx, site: _Site, args: dict) -> dict:
        store = site.store
        if store is None:  # a publish
            self._fresh_counter += 1
            return {"msgid": f"m{self._fresh_counter:08d}"}
        key = (site.table, args.get("key", ""))
        if site.write:
            ctx.journal.append((store, key, store.get(key), key in store))
            if site.write == "delete":
                store.pop(key, None)
            else:
                store[key] = args.get("val") or self._derive("v", f"{key[0]}:{key[1]}")
            return {"rows": "1"}
        # select / get
        stored = store.get(key)
        if stored is None:
            return {"value": self._derive("v", f"{key[0]}:{key[1]}"), "hit": "0"}
        return {"value": stored, "hit": "1"}

    def _rollback(self, ctx: _Ctx) -> None:
        for store, key, old, existed in reversed(ctx.journal):
            if existed:
                store[key] = old
            else:
                store.pop(key, None)
        ctx.journal.clear()

    def _publish(self, unit: _Unit):
        """A buffered publish to `unit`: pending in the outbox, and retried
        every _OUTBOX_RETRY_US while a fault is armed there."""
        created = self.now_us
        self._outbox.append(created)
        while True:
            yield _OUTBOX_RETRY_US
            armed = unit.armed
            if armed is None:
                break
            armed.hits.append(self.now_us)
            unit.events.append((self.now_us, self.now_us, False))
        unit.events.append((self.now_us, self.now_us, True))
        self._outbox.remove(created)

    # -- faults -----------------------------------------------------------------

    def arm_fault(self, service: str, endpoint: Endpoint, fault: FaultSpec) -> ArmedFault:
        unit = self._units.get((service, endpoint))  # one per spec.units member
        if unit is None:
            raise SimError(f"endpoint {endpoint.triple()} not used by service {service!r}")
        armed = ArmedFault(fault)
        if unit.armed is None:  # the first one wins
            unit.armed = armed
        return armed

    def disarm_fault(self, service: str, endpoint: Endpoint) -> None:
        unit = self._units.get((service, endpoint))
        if unit is not None:
            unit.armed = None

    # -- metrics ----------------------------------------------------------------

    def forget_before(self, t_us: int) -> None:
        """Drop the entry-log and endpoint-event records completed before
        `t_us`, and the remembered tokens. A metric query for a window that
        starts before `t_us` then raises SimError."""
        log = self._entry_log
        del log[:bisect_left(log, t_us, key=_COMPLETE_US)]
        for unit in self._units.values():
            del unit.events[:bisect_left(unit.events, t_us, key=_COMPLETE_US)]
        self._tokens.clear()
        self._kept_from_us = max(self._kept_from_us, t_us)

    def _check_kept(self, lo: int) -> None:
        if lo < self._kept_from_us:
            raise SimError(f"window from {lo} starts before {self._kept_from_us}, "
                           f"the records before which were dropped")

    def _entries_in(self, window: tuple) -> list:
        """The entry-log records completed in `window`."""
        lo, hi = window
        self._check_kept(lo)
        log = self._entry_log
        return log[bisect_left(log, lo, key=_COMPLETE_US):
                   bisect_left(log, hi, key=_COMPLETE_US)]

    def entry_metrics(self, window: tuple) -> dict:
        """Entry-request outcomes of `window`: the oracle's phase record, as
        the report holds it."""
        lo, hi = window
        done = self._entries_in(window)
        if hi > self.now_us + 1:
            raise SimError(f"window [{lo}, {hi}) beyond elapsed virtual time {self.now_us}")
        if not done:
            return {"samples": 0, "success_rate": None, "p50_us": None,
                    "p95_us": None, "throughput_rps": 0.0}
        latencies = sorted(c - s for (c, s, _ok, _lost) in done)
        n = len(latencies)
        ok_count = sum(1 for (_c, _s, ok, _lost) in done if ok)
        return {"samples": n, "success_rate": ok_count / n,
                "p50_us": latencies[max(0, (n * 50 + 99) // 100 - 1)],  # nearest-rank
                "p95_us": latencies[max(0, (n * 95 + 99) // 100 - 1)],
                "throughput_rps": n / ((hi - lo) / SECOND_US)}

    def endpoint_stats(self, service: str, endpoint: Endpoint, window: tuple) -> dict:
        lo, hi = window
        self._check_kept(lo)
        # a call that started at or after lo also completed at or after it
        invocations = 0
        failures = 0
        unit = self._units.get((service, endpoint))
        events = unit.events if unit is not None else ()
        for (_complete, start, ok) in events[bisect_left(events, lo, key=_COMPLETE_US):]:
            if lo <= start < hi:
                invocations += 1
                if not ok:
                    failures += 1
        return {"invocations": invocations, "failures": failures}

    def losses_in(self, window: tuple) -> int:
        return sum(lost for (_c, _s, _ok, lost) in self._entries_in(window))

    def outbox_pending_from(self, window: tuple) -> int:
        lo, hi = window
        self._check_kept(lo)
        return sum(1 for created in self._outbox if lo <= created < hi)


def replay_traffic(system: System, make_request, rate_per_sec: int,
                   start_us: int, duration_us: int) -> tuple:
    """Schedule `rate_per_sec` instantiated requests per virtual second over
    [start, start+duration) and run the loop to the window end. Returns the
    window for metric collection."""
    interval = SECOND_US // rate_per_sec
    count = (duration_us * rate_per_sec) // SECOND_US
    for k in range(count):
        at = start_us + k * interval
        system.post_request(make_request(at), at)
    system.run_until(start_us + duration_us)
    return (start_us, start_us + duration_us)


def record_traces(spec: TopologySpec, workload, seed: int):
    """Run the healthy system over (at_us, EntryRequest) workload entries, an
    iterable in time order (no at_us before the previous one) read once, and
    yield each recorded trace, as its corpus record, in submission order, as
    soon as its request and every earlier-submitted one have completed. An
    entry that no service takes (no route, or a failed validation) raises
    RejectedEntry.

    Entry i is read once entry i-1 is posted, and posted (as post_request's
    `index` i) once every event before its at_us has run, so the events run
    in the same order as in one run to idle with the whole workload posted
    first. An entry or a trace is held only while its request is in flight,
    and the system's metric logs, which nothing reads here, are dropped as
    the recording goes.
    """
    system = System(spec, seed, record_traces=True)
    handles = deque()
    last_us = -math.inf
    # the end marker at infinity runs the system to idle, which completes
    # every request: the last handles then all yield
    entries = itertools.chain(workload, [(math.inf, None)])
    try:
        for index, (at_us, request) in enumerate(entries):
            if at_us < last_us:
                raise SimError(f"workload entry {index} at {at_us} us is before "
                               f"the previous one at {last_us} us")
            last_us = at_us
            system._run_events(at_us - 1)  # every event before it (times are integers)
            while handles and handles[0][1].completed:
                posted, handle = handles.popleft()
                trace, handle.trace = handle.trace, None  # its deadline event holds the handle
                if trace is None:  # only a rejected entry opens no root span
                    raise RejectedEntry(posted, f"{handle.request.line!r} reached no "
                                                f"service: {handle.response.exc}")
                yield trace
            if request is not None:
                handles.append((index, system.post_request(request, at_us, index)))
            if index % _FORGET_EVERY == 0:  # no query reads a recording system's logs
                system.forget_before(system.now_us)
    finally:
        system.close()


def record_corpus(spec: TopologySpec, workload: list, seed: int) -> Corpus:
    """The corpus of every trace record_traces yields, decoded."""
    return new_corpus([trace_from_record(record, {}) for record in
                       record_traces(spec, workload, seed)], seed, spec.digest())
