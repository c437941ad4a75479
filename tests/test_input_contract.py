"""Generated input-contract test for the files the CLI reads.

Each example takes one valid file of the mini campaign (selection, corpus
index, templates, report, workload, criteria, topology or run plan), mutates
one field of one record or of an object below it, repeats a record or adds a
key (or, in the run plan, drops, repeats or swaps a line), and runs the CLI
stage that reads the file. The stage must either succeed, or exit 2 with
exactly one stderr line `error: <what> <path> ...` and no traceback; only a
templates file or corpus index that lacks a trace the run plan or selection
names, or a topology no service of which takes a workload entry, may be
named after that file. A line that is not UTF-8 must name its file and line.
"""

import contextlib
import io
import json
import math
import shutil
import signal
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilitest.cli import main
from resilitest.sim.topology import MAX_CALL_DEPTH, save_topology, topology_to_record
from resilitest.sim.workload import save_workload

from conftest import make_mini_topology, make_mini_workload

PHASES = "6,6,6,5"

# what a mutated field becomes; "drop" deletes it
VALUES = [0, "x", True, [1], {"a": 1}, None, math.nan, math.inf, -math.inf, -1]
MUTATIONS = ["drop", "repeat-record", "unknown-key", *range(len(VALUES))]


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """The mini campaign's files, every stage run once on them."""
    d = tmp_path_factory.mktemp("contract")
    spec = make_mini_topology(bug="fire_and_forget")
    save_topology(spec, d / "topology.json")
    save_workload(make_mini_workload(spec), d / "workload.jsonl")
    for argv in (["simulate-record", "--topology", d / "topology.json",
                  "--workload", d / "workload.jsonl", "--out", d / "corpus.txt"],
                 ["analyze", "--corpus", d / "corpus.txt", "--out-dir", d / "analysis"],
                 ["plan", "--corpus", d / "corpus.txt", "--analysis", d / "analysis",
                  "--out-dir", d / "plans"],
                 ["run", "--run-plan", d / "plans" / "runplan.txt",
                  "--topology", d / "topology.json",
                  "--templates", d / "analysis" / "templates.jsonl",
                  "--phases", PHASES, "--out", d / "report.jsonl"]):
        assert _run(argv) == (0, "")
    interface_id = json.loads((d / "report.jsonl").read_text().splitlines()[0])["interface_id"]
    (d / "criteria.json").write_text(json.dumps({
        "startup_min_success": 1.0, "inject_max_success": 0.3, "recover_min_success": 0.8,
        "interfaces": {interface_id: {"recover_min_success": 0.7}}}))
    return d


def _run_args(d, templates, criteria=None):
    return ["run", "--run-plan", d / "plans" / "runplan.txt", "--topology", d / "topology.json",
            "--templates", templates, "--phases", PHASES, "--out", d / "out" / "report.jsonl",
            *(["--criteria", criteria] if criteria else [])]


def _plan_args(sibling):
    """The plan stage reading the analysis directory of `path`, into which
    the valid `sibling`, the other analysis file plan reads, is copied."""
    def argv(d, path):
        shutil.copy(d / "analysis" / sibling, path.parent / sibling)
        return ["plan", "--corpus", d / "corpus.txt", "--analysis", path.parent,
                "--top-k", "all", "--out-dir", d / "out" / "plans"]
    return argv


# reader -> (the `what` its errors name, the valid file, whether the file is
# one JSON document rather than one record a line, the stage reading `path`)
READERS = {
    "selection": ("selection", "analysis/selection.jsonl", False,
                  _plan_args("corpus-index.jsonl")),
    "corpus-index": ("corpus-index", "analysis/corpus-index.jsonl", False,
                     _plan_args("selection.jsonl")),
    "templates": ("templates", "analysis/templates.jsonl", False,
                  lambda d, path: _run_args(d, path)),
    "report": ("report", "report.jsonl", False, lambda d, path: ["report", path]),
    "workload": ("workload", "workload.jsonl", False,
                 lambda d, path: ["simulate-record", "--topology", d / "topology.json",
                                  "--workload", path, "--out", d / "out" / "corpus.txt"]),
    "criteria": ("criteria", "criteria.json", True,
                 lambda d, path: _run_args(d, d / "analysis" / "templates.jsonl", path)),
    "topology": ("topology", "topology.json", True,
                 lambda d, path: ["simulate-record", "--topology", path,
                                  "--workload", d / "workload.jsonl",
                                  "--out", d / "out" / "corpus.txt"]),
}


def _fields(rec, above=()) -> list:
    """The path of each field of `rec`, and of each field of every object
    below it, held in a field or in a list in a field."""
    paths = []
    for key, value in rec.items():
        paths.append((*above, key))
        if isinstance(value, dict):
            paths.extend(_fields(value, (*above, key)))
        elif isinstance(value, list):
            for index, inner in enumerate(value):
                if isinstance(inner, dict):
                    paths.extend(_fields(inner, (*above, key, index)))
    return paths


def _mutate(records: list, data) -> list:
    """`records` with one mutation that `data` draws."""
    records = json.loads(json.dumps(records))  # a deep copy
    index = data.draw(st.integers(0, len(records) - 1), label="record")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    if mutation == "repeat-record":
        return records[:index + 1] + records[index:]
    path = data.draw(st.sampled_from(_fields(records[index])), label="field")
    parent = records[index]
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "unknown-key":
        parent["zz_unknown"] = 1
    elif mutation == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = VALUES[mutation]
    return records


# reader -> (how an error starts, how it ends) when the mutated file lacks a
# trace or an interface that another file the stage reads names: that file is
# named first
MISMATCHES = {
    "templates": ("error: run-plan ", " in templates {path}\n"),
    "corpus-index": ("error: selection ", " is not in corpus-index {path}\n"),
    "topology": ("error: workload ", " in topology {path}\n"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_a_mutated_input_file_loads_or_exits_2_naming_it(campaign, reader, data):
    what, name, document, argv = READERS[reader]
    text = (campaign / name).read_text()
    records = [json.loads(text)] if document else [json.loads(line)
                                                  for line in text.splitlines()]
    mutated = _mutate(records, data)
    path = campaign / "mutated" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(rec) + "\n" for rec in mutated))
    (campaign / "out").mkdir(exist_ok=True)
    code, err = _run(argv(campaign, path))
    if code != 0:
        assert code == 2
        assert len(err.splitlines()) == 1, err
        first, last = MISMATCHES.get(reader, (None, None))
        assert (err.startswith(f"error: {what} {path}")
                or (first and err.startswith(first)
                    and err.endswith(last.format(path=path)))), err
        assert "Traceback" not in err


_FRONT = ("services", 1, "interfaces", 0)
_PLACE = "front POST /front/orders/place/{item}"
_RENAMED = object()
_BACKEND_CALL = topology_to_record(make_mini_topology())["services"][1]["interfaces"][0][
    "workflow"][1]  # front's call of backend's POST /backend/internal/process


def _hop_services(hops: int) -> list:
    """The mini topology's services and `hops` more, hop<k> serving
    POST /hop<k>/next, each called by the one before; backend calls hop1."""
    services = topology_to_record(make_mini_topology())["services"]
    caller = services[0]["interfaces"][0]
    for k in range(1, hops + 1):
        caller["workflow"].append(dict(_BACKEND_CALL, target_service=f"hop{k}",
                                       target_line=f"POST /hop{k}/next"))
        caller = {"method": "POST", "uri": f"/hop{k}/next", "workflow": []}
        services.append({"name": f"hop{k}", "interfaces": [caller]})
    return services

# topology fields that once loaded with another meaning than they state, or
# crashed the stage: case -> (the record's path, its keys with their new
# values, _RENAMED for a key renamed to `timeout`, the error after the path)
MALFORMED_TOPOLOGIES = {
    "timeout-misspelled": ((*_FRONT, "workflow", 1), {"timeout_us": _RENAMED},
                           f"{_PLACE} step 1: missing timeout_us"),
    "compensate-string": (_FRONT, {"compensate": "false"},
                          f"{_PLACE}: compensate must be true or false, got 'false'"),
    "best-effort-string": ((*_FRONT, "workflow", 1), {"best_effort": "no"},
                           f"{_PLACE} step 1: best_effort must be true or false, got 'no'"),
    "table-number": ((*_FRONT, "workflow", 0), {"table": 3},
                     f"{_PLACE} step 0: table must be a string, got 3"),
    "name-list": ((), {"name": ["mini"]},
                  "topology unnamed: name must be a string, got ['mini']"),
    "seed-string": ((), {"seed": "11"}, "topology mini: seed must be an integer, got '11'"),
    "uri-number": (_FRONT, {"uri": 3}, "front POST 3: uri must be a string, got 3"),
    # an interface line that `analyze` could not parse once recorded
    "uri-relative": (_FRONT, {"uri": "front/orders"},
                     "front POST front/orders: malformed request line 'POST front/orders': "
                     "path must start with '/'"),
    "uri-space": (_FRONT, {"uri": "/front/orders place"},
                  "front POST /front/orders place: malformed request line "
                  "'POST /front/orders place': expected 'METHOD /path'"),
    "uri-repeated": (_FRONT, {"uri": "/backend/internal/process"},
                     "front POST /backend/internal/process: interface line already "
                     "declared by backend"),
    "response-path-number": ((*_FRONT, "resp", 0), {"path": 3},
                             f"{_PLACE}: path must be a string, got 3"),
    # a key the step's op does not read
    "db-step-component": ((*_FRONT, "workflow", 0), {"component": "RPC"},
                          f"{_PLACE} step 0: unknown key(s) component"),
    "db-step-call-target": ((*_FRONT, "workflow", 0),
                            {"target_service": "backend",
                             "target_line": "POST /backend/internal/process"},
                            f"{_PLACE} step 0: unknown key(s) target_line, target_service"),
    "db-step-topic": ((*_FRONT, "workflow", 0), {"topic": "front-events"},
                      f"{_PLACE} step 0: unknown key(s) topic"),
    "cache-step-topic": ((*_FRONT, "workflow", 0), {"op": "cache", "topic": "front-events"},
                         f"{_PLACE} step 0: unknown key(s) topic"),
    "call-step-table": ((*_FRONT, "workflow", 1), {"table": "front_main"},
                        f"{_PLACE} step 1: unknown key(s) table"),
    "call-step-topic": ((*_FRONT, "workflow", 1), {"topic": "front-events"},
                        f"{_PLACE} step 1: unknown key(s) topic"),
    "mq-step-table": ((*_FRONT, "workflow", 2), {"table": "front_main"},
                      f"{_PLACE} step 2: unknown key(s) table"),
    # a call graph the simulator would recurse through without end, or too deep
    "call-cycle": (("services", 0, "interfaces", 0), {"workflow": [_BACKEND_CALL]},
                   "call cycle: backend POST /backend/internal/process -> "
                   "backend POST /backend/internal/process"),
    "call-chain-too-deep": ((), {"services": _hop_services(MAX_CALL_DEPTH)},
                            f"{_PLACE}: a call chain of more than {MAX_CALL_DEPTH} hops"),
}


class _Overrun(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise _Overrun in the block once `seconds` of wall time have passed."""
    def overrun(_signum, _frame):
        raise _Overrun(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("stage", ["simulate-record", "run"])
@pytest.mark.parametrize("case", sorted(MALFORMED_TOPOLOGIES))
def test_a_malformed_topology_exits_2_naming_its_file_and_place(campaign, case, stage):
    keys, changes, message = MALFORMED_TOPOLOGIES[case]
    rec = json.loads((campaign / "topology.json").read_text())
    holder = rec
    for inner in keys:
        holder = holder[inner]
    for key, value in changes.items():
        if value is _RENAMED:
            holder["timeout"] = holder.pop(key)
        else:
            holder[key] = value
    path = campaign / "malformed" / f"{case}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(rec))
    (campaign / "out").mkdir(exist_ok=True)
    if stage == "run":
        argv = _run_args(campaign, campaign / "analysis" / "templates.jsonl")
        argv[argv.index("--topology") + 1] = path
    else:
        argv = READERS["topology"][3](campaign, path)
    with _deadline(10):  # a call cycle once recorded without end
        assert _run(argv) == (2, f"error: topology {path}: {message}\n")


def test_a_call_chain_at_the_depth_bound_records(campaign):
    rec = json.loads((campaign / "topology.json").read_text())
    rec["services"] = _hop_services(MAX_CALL_DEPTH - 1)  # front calls backend first
    path = campaign / "deep" / "topology.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(rec))
    corpus = path.parent / "corpus.txt"
    assert _run(["simulate-record", "--topology", path, "--workload",
                 campaign / "workload.jsonl", "--out", corpus]) == (0, "")
    _header, *lines = corpus.read_text().splitlines()
    assert max(len(json.loads(line)["spans"]) for line in lines) > MAX_CALL_DEPTH


def _edited_catalog(campaign, stage, fault_id, old, new) -> tuple:
    """The argv of `stage` with the default catalog, `old` replaced by `new`
    in fault `fault_id`'s line, and (that catalog's path, the line's number)."""
    lines = resources.files("resilitest.assets").joinpath(
        "default_faults.txt").read_text("utf-8").splitlines()
    line = next(n for n, text in enumerate(lines, 1) if text.startswith(f"{fault_id} "))
    lines[line - 1] = lines[line - 1].replace(old, new)
    path = campaign / f"{fault_id}-{new.replace(' ', '-')}" / "faults.txt"
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(text + "\n" for text in lines))
    (campaign / "out").mkdir(exist_ok=True)
    if stage == "run":
        argv = _run_args(campaign, campaign / "analysis" / "templates.jsonl")
    else:
        argv = ["plan", "--corpus", campaign / "corpus.txt", "--analysis",
                campaign / "analysis", "--out-dir", campaign / "out" / "plans"]
    return [*argv, "--catalog", path], path, line


@pytest.mark.parametrize("stage", ["plan", "run"])
def test_a_negative_catalog_delay_exits_2_naming_its_file_and_line(campaign, stage):
    argv, path, line = _edited_catalog(campaign, stage, "db-slow", "delay auto", "delay -5s")
    assert _run(argv) == (
        2, f"error: catalog {path} line {line}: delay must be at least 0, got '-5s'\n")


@pytest.mark.parametrize("stage", ["plan", "run"])
@pytest.mark.parametrize("code", ["200", "-7", "399", "600"])
def test_a_catalog_status_outside_400_to_599_exits_2_naming_its_file_and_line(
        campaign, stage, code):
    argv, path, line = _edited_catalog(campaign, stage, "http-500", "status 500",
                                       f"status {code}")
    assert _run(argv) == (2, f"error: catalog {path} line {line}: status code must be "
                             f"400-599, got '{code}'\n")


def _run_plan_args(d, path):
    argv = _run_args(d, d / "analysis" / "templates.jsonl")
    argv[argv.index("--run-plan") + 1] = path
    return argv


# each line reader above, and the run plan's and the corpus's:
# reader -> (the `what` its errors name, the valid file, the stage reading `path`)
LINE_READERS = {
    **{reader: (what, name, argv)
       for reader, (what, name, document, argv) in READERS.items() if not document},
    "run-plan": ("run-plan", "plans/runplan.txt", _run_plan_args),
    "corpus": ("corpus", "corpus.txt",
               lambda d, path: ["analyze", "--corpus", path,
                                "--out-dir", d / "out" / "analysis"]),
}


@pytest.mark.parametrize("reader", sorted(LINE_READERS))
def test_a_line_that_is_not_utf8_exits_2_naming_its_file_and_line(campaign, reader):
    what, name, argv = LINE_READERS[reader]
    data = (campaign / name).read_bytes()
    path = campaign / "not-utf8" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data + b"\xff\xfe garbage\n")
    (campaign / "out").mkdir(exist_ok=True)
    line = data.count(b"\n") + 1
    assert _run(argv(campaign, path)) == (2, f"error: {what} {path} line {line}: not UTF-8\n")


# what a mutated run-plan field becomes: unknown IDs, IDs of the mini
# topology and catalog that do not belong to the case, numbers, no field
# ("") and two fields ("x y")
PLAN_VALUES = ["x", "0", "-1", "16", "t999999", "t000003", "nosuch", "backend", "front",
               "MQ:pulsar:publish", "Database:jdbc:insert", "a:b", "db-slow",
               "no-such-fault", "", "x y"]


def _mutate_run_plan(lines: list, data) -> list:
    """`lines` with one line dropped, repeated or swapped with another, or
    one field of a case line or a header's trace= or cases= changed."""
    lines = list(lines)
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    mutation = data.draw(st.sampled_from(["drop", "repeat", "swap", "field"]),
                         label="mutation")
    if mutation == "drop":
        del lines[index]
    elif mutation == "repeat":
        lines.insert(index, lines[index])
    elif mutation == "swap":
        other = data.draw(st.integers(0, len(lines) - 1), label="other")
        lines[index], lines[other] = lines[other], lines[index]
    else:
        value = data.draw(st.sampled_from(PLAN_VALUES), label="value")
        fields = lines[index].split()
        if fields[0] == "run":
            key = data.draw(st.sampled_from(["trace=", "cases="]), label="key")
            lines[index] = " ".join(key + value if f.startswith(key) else f for f in fields)
        else:
            fields[data.draw(st.integers(0, len(fields) - 1), label="field")] = value
            lines[index] = "  " + " ".join(fields)
    return lines


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_a_mutated_run_plan_runs_or_exits_2_naming_it(campaign, data):
    lines = (campaign / "plans" / "runplan.txt").read_text().splitlines()
    mutated = _mutate_run_plan(lines, data)
    path = campaign / "mutated" / "runplan.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(line + "\n" for line in mutated))
    report = campaign / "out" / "report.jsonl"
    report.parent.mkdir(exist_ok=True)
    report.unlink(missing_ok=True)
    code, err = _run(_run_plan_args(campaign, path))
    if code != 0:
        assert code == 2
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"error: run-plan {path}"), err
        assert "Traceback" not in err
    else:
        planned = [line.split()[0] for line in mutated if not line.startswith("run ")]
        records = [json.loads(line) for line in report.read_text().splitlines()]
        reported = [rec["case_id"] for rec in records if rec["type"] == "test_run"]
        assert len(set(planned)) == len(planned)
        assert len(set(reported)) == len(reported)
        assert records[-1]["cases"] == len(reported)
        assert set(reported) <= set(planned)
