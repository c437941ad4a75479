"""Builder of the reference system shipped under src/resilitest/assets.

Twelve services, 204 interfaces, and ten seeded resilience bugs (two of each
class). Layout rules the generator enforces:

* Per-service framework stacks keep every (component, framework) pair on at
  most three services, so cross-service sampling never drops a buggy target.
* Within a service, all steps sharing an endpoint tuple have identical
  failure-handling semantics, so a test case is meaningful in any run whose
  trace covers its coverage unit.
* Each buggy step's tuple is unique to its interface inside that service.
* Interfaces split into deep flows (ranked at the top by complexity), mediums,
  and a long tail of trivial endpoints, giving the top-K sweeps their shape.
* Four interfaces carry a computed signature token that is validated but never
  echoed, so replay needs the manual registry for them (2% of 204).

The program reads only the files; ``test_sim`` checks that they are byte for
byte what this module writes. To regenerate them after changing the builder:

    PYTHONPATH=src python tests/reference_system.py src/resilitest/assets
"""

from __future__ import annotations

from resilitest.aggregation import WILDCARD, interface_digest
from resilitest.model import write_lines
from resilitest.refassets import build_reference_workload
from resilitest.templating import REQ, ManualVariableRegistry
from resilitest.sim.topology import (BUG_FIRE_AND_FORGET, BUG_MISSING_TIMEOUT,
                                     BUG_NO_RETRY, BUG_NO_ROLLBACK, BUG_SWALLOW,
                                     FieldSpec, InterfaceSpec, ON_ERROR_CATCH,
                                     ON_ERROR_IGNORE, ON_ERROR_PROPAGATE, RespField,
                                     ServiceSpec, Step, TopologySpec,
                                     validate_topology)

REFERENCE_SEED = 1717
TIMEOUT_US = 1_000_000

# name -> component framework stack (None: the service does not use it)
STACKS = {
    "order":     {"db": "jdbc", "cache": "jedis", "mq": "kafka", "http": "resttemplate", "rpc": "grpc"},
    "payment":   {"db": "jdbc", "cache": "lettuce", "mq": "kafka", "http": "okhttp", "rpc": "grpc"},
    "user":      {"db": "jdbc", "cache": "jedis", "mq": "rocketmq", "http": "feign", "rpc": "dubbo"},
    "inventory": {"db": "mybatis", "cache": "jedis", "mq": "pulsar", "http": "feign", "rpc": None},
    "shipping":  {"db": "mybatis", "cache": None, "mq": "pulsar", "http": "okhttp", "rpc": None},
    "catalog":   {"db": "mybatis", "cache": "lettuce", "mq": "rocketmq", "http": "httpclient", "rpc": "dubbo"},
    "product":   {"db": "jpa", "cache": "redisson", "mq": "kafka", "http": "okhttp", "rpc": "dubbo"},
    "notify":    {"db": "jpa", "cache": None, "mq": "pulsar", "http": "feign", "rpc": None},
    "auth":      {"db": "jpa", "cache": "lettuce", "mq": None, "http": "httpclient", "rpc": None},
    "geo":       {"db": "hibernate", "cache": None, "mq": None, "http": None, "rpc": None},
    "analytics": {"db": "hibernate", "cache": "redisson", "mq": "rocketmq", "http": "httpclient", "rpc": "grpc"},
    "report":    {"db": "hibernate", "cache": "redisson", "mq": None, "http": "resttemplate", "rpc": None},
}
SERVICE_NAMES = list(STACKS)

SIGNATURE_SERVICES = ("geo", "analytics", "user", "catalog")

_TRIVIA = [
    ("GET", "health", "live"), ("GET", "version", "info"), ("GET", "ping", "echo"),
    ("GET", "ready", "probe"), ("GET", "config", "view"), ("POST", "audit", "mark"),
    ("GET", "uptime", "read"), ("PUT", "banner", "set"), ("DELETE", "scratch", "wipe"),
]


def _std_fields(service: str, *data_fields: str, token: bool = True,
                idem: bool = False, signature: bool = False) -> tuple:
    fields = [FieldSpec(path="ts", kind="timestamp", validate="fresh_window", echo=True)]
    if token:
        fields.append(FieldSpec(path="token", kind="session", validate="single_use", echo=True))
    if idem:
        fields.append(FieldSpec(path="idem", kind="idempotency", validate="single_use", echo=True))
    if signature:
        fields.append(FieldSpec(path="sig", kind="signature", validate="single_use", echo=False))
    fields.append(FieldSpec(path="channel", kind="static", value="web", echo=True))
    for name in data_fields:
        fields.append(FieldSpec(path=name, kind="data"))
    return tuple(fields)


def _db(svc, method, table, key, val=None, on_error=ON_ERROR_PROPAGATE, bug=""):
    args = [("key", key)]
    if val is not None:
        args.append(("val", val))
    return Step(op="db", method=method, framework=STACKS[svc]["db"], table=table,
                args=tuple(args), timeout_us=TIMEOUT_US, on_error=on_error, bug=bug)


def _cache(svc, method, table, key, val=None, best_effort=True, bug=""):
    args = [("key", key)]
    if val is not None:
        args.append(("val", val))
    return Step(op="cache", method=method, framework=STACKS[svc]["cache"], table=table,
                args=tuple(args), timeout_us=TIMEOUT_US, on_error=ON_ERROR_CATCH,
                best_effort=best_effort, bug=bug)


def _mq(svc, method, topic, args, on_error=ON_ERROR_CATCH, bug=""):
    return Step(op="mq", method=method, framework=STACKS[svc]["mq"], topic=topic,
                args=tuple(args), timeout_us=TIMEOUT_US, async_step=True,
                on_error=on_error, bug=bug)


def _call(svc, transport, method, target, target_line, args,
          timeout=TIMEOUT_US, bug=""):
    framework = STACKS[svc][transport]
    component = "HTTP" if transport == "http" else "RPC"
    return Step(op="call", method=method, framework=framework, component=component,
                target_service=target, target_line=target_line, args=tuple(args),
                timeout_us=timeout, on_error=ON_ERROR_PROPAGATE, bug=bug)


def _safe_cache_read(svc: str, key: str) -> Step:
    """Cache read, except where the cache.get tuple is reserved by a bug."""
    if STACKS[svc]["cache"] and svc not in ("user", "auth"):
        return _cache(svc, "get", f"{svc}_cache", key)
    return _db(svc, "select", f"{svc}_side", key)


def _process_line(svc: str) -> str:
    return f"POST /{svc}/internal/process"


def _lookup_line(svc: str) -> str:
    return f"GET /{svc}/internal/lookup"


def _peer(svc: str, k: int) -> str:
    idx = SERVICE_NAMES.index(svc)
    return SERVICE_NAMES[(idx + k) % len(SERVICE_NAMES)]


def _bug_interface(svc: str) -> InterfaceSpec:
    """The hand-authored seeded-bug interface of each bug service."""
    if svc == "order":
        # Case-1 analog: producer HTTP call instantiated without a read timeout.
        return InterfaceSpec(
            method="POST", uri_template="/order/checkout/submit/{cart}",
            fields=_std_fields("order", "cart", "addr", idem=True),
            resp_fields=(RespField("order_ref", "token"),),
            workflow=(
                _db("order", "select", "order_users", "req.cart"),
                _call("order", "http", "post", "geo", _process_line("geo"),
                      [("key", "req.addr")], timeout=None, bug=BUG_MISSING_TIMEOUT),
                _call("order", "http", "get", "shipping", _lookup_line("shipping"),
                      [("ref", "out:1.ref")]),
                _db("order", "insert", "order_orders", "req.idem", "req.addr"),
                _mq("order", "send", "order-events", [("oid", "req.cart")]),
                _cache("order", "get", "order_cache", "req.cart"),
            ))
    if svc == "report":
        return InterfaceSpec(
            method="POST", uri_template="/report/digest/generate/{kind}",
            fields=_std_fields("report", "kind", "metric", idem=True),
            resp_fields=(RespField("digest_ref", "token"),),
            workflow=(
                _db("report", "select", "report_specs", "req.kind"),
                _call("report", "http", "post", "analytics", _process_line("analytics"),
                      [("key", "req.metric")], timeout=None, bug=BUG_MISSING_TIMEOUT),
                _call("report", "http", "get", "geo", _lookup_line("geo"),
                      [("ref", "out:1.ref")]),
                _db("report", "insert", "report_out", "req.idem", "req.kind"),
                _cache("report", "set", "report_cache", "req.kind", "req.metric"),
            ))
    if svc == "product":
        # Case-2 analog: fire-and-forget event publish after the primary write.
        return InterfaceSpec(
            method="POST", uri_template="/product/items/add",
            fields=_std_fields("product", "item_id", "price"),
            resp_fields=(RespField("sku_ref", "derive:item_id"),),
            workflow=(
                _db("product", "select", "product_catalog", "req.item_id"),
                _db("product", "insert", "product_items", "req.item_id", "req.price"),
                _mq("product", "send", "product-events", [("pid", "req.item_id")],
                    on_error=ON_ERROR_IGNORE, bug=BUG_FIRE_AND_FORGET),
                _cache("product", "get", "product_cache", "req.item_id"),
            ))
    if svc == "notify":
        return InterfaceSpec(
            method="POST", uri_template="/notify/alerts/dispatch",
            fields=_std_fields("notify", "alert_id", "msg"),
            resp_fields=(RespField("alert_ref", "token"),),
            workflow=(
                _db("notify", "insert", "notify_log", "req.alert_id", "req.msg"),
                _mq("notify", "send", "notify-stream", [("aid", "req.alert_id")],
                    on_error=ON_ERROR_IGNORE, bug=BUG_FIRE_AND_FORGET),
                _call("notify", "http", "get", "user", _lookup_line("user"),
                      [("ref", "req.msg")]),
            ))
    if svc == "inventory":
        # dual write: DB is authoritative, the cache sync is silently dropped
        return InterfaceSpec(
            method="POST", uri_template="/inventory/stock/adjust/{sku}",
            fields=_std_fields("inventory", "sku", "level", "batch"),
            resp_fields=(RespField("stock_ref", "derive:sku"),),
            workflow=(
                _db("inventory", "select", "inv_main", "req.sku"),
                _db("inventory", "update", "inv_main", "req.sku", "req.level"),
                _cache("inventory", "set", "inv_cache", "req.sku", "req.level",
                       best_effort=False, bug=BUG_NO_ROLLBACK),
                _mq("inventory", "publish", "inv-events", [("evt", "req.batch")]),
            ))
    if svc == "catalog":
        # dual write: UPDATE in the database then DELETE in the cache
        return InterfaceSpec(
            method="POST", uri_template="/catalog/prices/update/{sku}",
            fields=_std_fields("catalog", "sku", "price", "note"),
            resp_fields=(RespField("price_ref", "derive:sku"),),
            workflow=(
                _db("catalog", "select", "cat_main", "req.sku"),
                _db("catalog", "update", "cat_main", "req.sku", "req.price"),
                _cache("catalog", "delete", "cat_cache", "req.sku",
                       best_effort=False, bug=BUG_NO_ROLLBACK),
                _call("catalog", "rpc", "invoke", "product", _process_line("product"),
                      [("key", "req.note")]),
            ))
    if svc == "user":
        return InterfaceSpec(
            method="GET", uri_template="/user/profiles/view/{uid}",
            fields=_std_fields("user", "uid"),
            resp_fields=(RespField("profile_ref", "derive:uid"),),
            workflow=(
                _cache("user", "get", "user_cache", "req.uid", bug=BUG_NO_RETRY),
                _db("user", "select", "user_main", "req.uid"),
                _call("user", "rpc", "invoke", "auth", _process_line("auth"),
                      [("key", "req.uid")]),
            ))
    if svc == "auth":
        return InterfaceSpec(
            method="POST", uri_template="/auth/sessions/login/{account}",
            fields=_std_fields("auth", "account", "device"),
            resp_fields=(RespField("session_ref", "token"),),
            workflow=(
                _cache("auth", "get", "auth_sessions", "req.account", bug=BUG_NO_RETRY),
                _db("auth", "select", "auth_users", "req.account"),
                _cache("auth", "set", "auth_sessions", "req.account", "req.device"),
                _call("auth", "http", "post", "user", _process_line("user"),
                      [("key", "req.account")]),
            ))
    if svc == "payment":
        return InterfaceSpec(
            method="POST", uri_template="/payment/charges/execute",
            fields=_std_fields("payment", "account", "amount", "memo", idem=True),
            resp_fields=(RespField("charge_ref", "token"),),
            workflow=(
                _db("payment", "select", "pay_accounts", "req.account"),
                _db("payment", "update", "pay_accounts", "req.account", "req.amount",
                    on_error=ON_ERROR_IGNORE, bug=BUG_SWALLOW),
                _mq("payment", "publish", "pay-events", [("evt", "req.memo")]),
                _call("payment", "rpc", "invoke", "order", _process_line("order"),
                      [("key", "req.idem")]),
            ))
    if svc == "shipping":
        return InterfaceSpec(
            method="POST", uri_template="/shipping/manifests/create",
            fields=_std_fields("shipping", "manifest_id", "dest", "priority"),
            resp_fields=(RespField("manifest_ref", "token"),),
            workflow=(
                _db("shipping", "select", "ship_routes", "req.dest"),
                _db("shipping", "insert", "ship_manifests", "req.manifest_id", "req.dest",
                    on_error=ON_ERROR_IGNORE, bug=BUG_SWALLOW),
                _mq("shipping", "send", "ship-events", [("code", "req.priority")]),
                _call("shipping", "http", "get", "geo", _lookup_line("geo"),
                      [("ref", "req.dest")]),
            ))
    raise ValueError(f"no bug interface defined for {svc!r}")


def _flagship_interface(svc: str) -> InterfaceSpec:
    """Healthy deep interface for services without a seeded bug."""
    if svc == "geo":
        return InterfaceSpec(
            method="POST", uri_template="/geo/regions/resolve/{zone}",
            fields=_std_fields("geo", "zone", "locale"),
            resp_fields=(RespField("region_ref", "derive:zone"),),
            workflow=(
                _db("geo", "select", "geo_regions", "req.zone"),
                _db("geo", "update", "geo_regions", "req.zone", "req.locale"),
                _db("geo", "select", "geo_locales", "req.locale"),
            ))
    if svc == "analytics":
        return InterfaceSpec(
            method="POST", uri_template="/analytics/funnels/compute/{window}",
            fields=_std_fields("analytics", "window", "metric", "segment", idem=True),
            resp_fields=(RespField("funnel_ref", "token"),),
            workflow=(
                _db("analytics", "select", "ana_windows", "req.window"),
                _cache("analytics", "get", "ana_cache", "req.metric"),
                _call("analytics", "http", "post", "catalog", _process_line("catalog"),
                      [("key", "req.segment")]),
                _call("analytics", "rpc", "invoke", "payment", _process_line("payment"),
                      [("key", "req.metric")]),
                _mq("analytics", "publish", "ana-events", [("evt", "req.window")]),
                _db("analytics", "insert", "ana_results", "req.idem", "req.metric"),
            ))
    raise ValueError(f"no flagship interface defined for {svc!r}")


def _deep_flow_interface(svc: str) -> InterfaceSpec:
    """deep#1: producer-consumer flow (where the stack allows calls)."""
    stack = STACKS[svc]
    steps = [_db(svc, "select", f"{svc}_main", "req.item")]
    if stack["http"]:
        # "put" keeps this producer call off the tuples reserved by bug steps
        producer_target = _peer(svc, 1)
        consumer_target = _peer(svc, 2)
        steps.append(_call(svc, "http", "put", producer_target,
                           _process_line(producer_target), [("key", "req.item")]))
        steps.append(_call(svc, "http", "get", consumer_target,
                           _lookup_line(consumer_target), [("ref", "out:1.ref")]))
    else:
        steps.append(_db(svc, "select", f"{svc}_side", "req.extra"))
    if stack["cache"]:
        steps.append(_safe_cache_read(svc, "req.item"))
    if stack["rpc"]:
        target = _peer(svc, 3)
        steps.append(_call(svc, "rpc", "invoke", target, _process_line(target),
                           [("key", "req.extra")]))
    return InterfaceSpec(
        method="POST", uri_template=f"/{svc}/pipeline/run/{{item}}",
        fields=_std_fields(svc, "item", "extra", idem=True),
        resp_fields=(RespField("flow_ref", "token"),),
        workflow=tuple(steps))


def _deep_sync_interface(svc: str) -> InterfaceSpec:
    """deep#2: dual-write flow with an async, durably-retried event publish."""
    stack = STACKS[svc]
    # payment's db.update tuple is reserved by its seeded swallow bug
    primary = ("insert", "pay_ledger") if svc == "payment" else ("update", f"{svc}_main")
    steps = [
        _db(svc, "select", f"{svc}_main", "req.sku"),
        _db(svc, primary[0], primary[1], "req.sku", "req.level"),
    ]
    if stack["mq"]:
        steps.append(_mq(svc, "publish", f"{svc}-sync", [("sid", "req.sku")]))
    if stack["http"]:
        target = _peer(svc, 4)
        steps.append(_call(svc, "http", "get", target, _lookup_line(target),
                           [("ref", "req.view")]))
    steps.append(_safe_cache_read(svc, "req.view"))
    return InterfaceSpec(
        method="PUT", uri_template=f"/{svc}/records/sync/{{sku}}",
        fields=_std_fields(svc, "sku", "level", "view"),
        resp_fields=(RespField("sync_ref", "derive:sku"),),
        workflow=tuple(steps))


def _medium_a(svc: str) -> InterfaceSpec:
    stack = STACKS[svc]
    steps = []
    if stack["http"]:
        target = _peer(svc, 2)
        steps.append(_call(svc, "http", "get", target, _lookup_line(target),
                           [("ref", "req.q")]))
    steps.append(_db(svc, "select", f"{svc}_main", "req.q"))
    if svc in ("product", "notify"):
        # healthy insert coverage for the tuple dropped from the bug trace
        table = "notify_log" if svc == "notify" else "product_items"
        steps.append(_db(svc, "insert", table, "req.q", "req.tag"))
    return InterfaceSpec(
        method="GET", uri_template=f"/{svc}/search/query/{{q}}",
        fields=_std_fields(svc, "q", "tag"),
        resp_fields=(RespField("hits", "lit:3"),),
        workflow=tuple(steps))


def _medium_b(svc: str) -> InterfaceSpec:
    stack = STACKS[svc]
    if svc == "payment":
        # payment's db.update tuple is reserved by its seeded bug
        steps = [_db(svc, "delete", "pay_accounts", "req.sku")]
    else:
        steps = [_db(svc, "update", f"{svc}_main", "req.sku", "req.v")]
    if stack["mq"]:
        steps.append(_mq(svc, "send" if svc not in ("product", "notify") else "publish",
                         f"{svc}-audit", [("note", "req.memo")]))
    return InterfaceSpec(
        method="PUT", uri_template=f"/{svc}/entries/save",
        fields=_std_fields(svc, "sku", "v", "memo"),
        resp_fields=(RespField("saved", "lit:1"),),
        workflow=tuple(steps))


def _internal_process(svc: str) -> InterfaceSpec:
    return InterfaceSpec(
        method="POST", uri_template=f"/{svc}/internal/process",
        fields=_std_fields(svc, "key", token=False),
        resp_fields=(RespField("ref", "derive:key"),),
        workflow=(_db(svc, "select", f"{svc}_main", "req.key"),))


def _internal_lookup(svc: str) -> InterfaceSpec:
    step = _safe_cache_read(svc, "req.ref")
    return InterfaceSpec(
        method="GET", uri_template=f"/{svc}/internal/lookup",
        fields=_std_fields(svc, "ref", token=False),
        resp_fields=(RespField("found", "lit:yes"),),
        workflow=(step,))


def _stats_interface(svc: str) -> InterfaceSpec:
    return InterfaceSpec(
        method="GET", uri_template=f"/{svc}/meta/stats",
        fields=_std_fields(svc, "scope", signature=svc in SIGNATURE_SERVICES),
        resp_fields=(RespField("count", "lit:0"),),
        workflow=(_db(svc, "select", f"{svc}_stats", "req.scope"),))


def _trivial(svc: str, method: str, noun: str, verb: str) -> InterfaceSpec:
    return InterfaceSpec(
        method=method, uri_template=f"/{svc}/{noun}/{verb}",
        fields=_std_fields(svc, token=False),
        resp_fields=(RespField("state", "lit:up"),),
        workflow=())


BUG_SERVICES = ("order", "report", "product", "notify", "inventory",
                "catalog", "user", "auth", "payment", "shipping")


def build_reference_topology(bugs: bool = True) -> TopologySpec:
    services = []
    for svc in SERVICE_NAMES:
        interfaces = [
            _bug_interface(svc) if svc in BUG_SERVICES else _flagship_interface(svc),
            _deep_flow_interface(svc),
            _deep_sync_interface(svc),
            _medium_a(svc),
            _medium_b(svc),
            _internal_process(svc),
            _internal_lookup(svc),
            _stats_interface(svc),
        ]
        for method, noun, verb in _TRIVIA:
            interfaces.append(_trivial(svc, method, noun, verb))
        services.append(ServiceSpec(name=svc, interfaces=tuple(interfaces)))
    spec = TopologySpec(name="reference", seed=REFERENCE_SEED, services=tuple(services))
    validate_topology(spec)
    _check_layout_rules(spec)
    return spec if bugs else spec.bug_free()


def _check_layout_rules(spec: TopologySpec) -> None:
    # every (component, framework) pair on <= 3 services
    pair_users = {}
    for svc, iface in spec.interfaces():
        for step in iface.workflow:
            ep = step.endpoint()
            pair_users.setdefault((ep.component, ep.framework), set()).add(svc.name)
    offenders = {pair: users for pair, users in pair_users.items() if len(users) > 3}
    if offenders:
        raise AssertionError(f"framework pairs spread over >3 services: {offenders}")

    # all steps sharing a tuple within a service behave identically
    semantics = {}
    for svc, iface in spec.interfaces():
        for step in iface.workflow:
            key = (svc.name, step.endpoint())
            sig = (step.timeout_us is None, step.on_error, step.retries,
                   step.bug, step.best_effort)
            if key in semantics and semantics[key] != sig:
                raise AssertionError(f"inconsistent semantics for {key}: "
                                     f"{semantics[key]} vs {sig}")
            semantics[key] = sig


def expected_interface_id(iface: InterfaceSpec) -> str:
    """The aggregation digest this interface clusters to (params varied)."""
    tokens = []
    for token in iface.uri_template.split("/")[1:]:
        tokens.append(WILDCARD if token.startswith("{") else token)
    return interface_digest(iface.method, tokens)


def build_signature_registry(spec: TopologySpec) -> ManualVariableRegistry:
    registry = ManualVariableRegistry()
    for svc, iface in spec.interfaces():
        if any(f.kind == "signature" for f in iface.fields):
            registry.register(expected_interface_id(iface), "sig", "fresh_id",
                              note=f"computed signature of {svc.name}{iface.uri_template}")
    return registry


def save_registry(registry: ManualVariableRegistry, path) -> None:
    """Write `registry` in the format ManualVariableRegistry.load reads, one
    entry per line with its note, interfaces and key-paths sorted. The
    program only reads registries: an operator writes them."""
    notes = {key: f"  # {note}" for key, note in registry.provenance.items()}
    write_lines(path, (f"{interface_id} {REQ} {key_path} {kinds[key_path]}"
                       f"{notes.get((interface_id, key_path), '')}"
                       for interface_id, kinds in sorted(registry.entries.items())
                       for key_path in sorted(kinds)))


def write_reference_assets(out_dir: str) -> dict:
    """Materialize the shipped topology, bug-free variant, workload, and
    signature registry as files; returns their paths."""
    import os

    from resilitest.sim.topology import save_topology
    from resilitest.sim.workload import save_workload

    os.makedirs(out_dir, exist_ok=True)
    topology = build_reference_topology()
    paths = {
        "topology": os.path.join(out_dir, "reference_topology.json"),
        "topology_bugfree": os.path.join(out_dir, "reference_topology_bugfree.json"),
        "workload": os.path.join(out_dir, "reference_workload.jsonl"),
        "registry": os.path.join(out_dir, "reference_registry.txt"),
    }
    save_topology(topology, paths["topology"])
    save_topology(topology.bug_free(), paths["topology_bugfree"])
    save_workload(build_reference_workload(topology), paths["workload"])
    save_registry(build_signature_registry(topology), paths["registry"])
    return paths


if __name__ == "__main__":
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "."
    for name, path in sorted(write_reference_assets(target).items()):
        print(f"{name}: {path}")
