"""Generated input-contract test for the JSON files the CLI reads.

Each example takes one valid file of the mini campaign (selection,
templates, report, workload or criteria), mutates one field of one record,
repeats a record or adds a key, and runs the CLI stage that reads the file.
The stage must either succeed, or exit 2 with exactly one stderr line
`error: <what> <path> ...` and no traceback.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilitest.cli import main
from resilitest.sim.topology import save_topology
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


# reader -> (the `what` its errors name, the valid file, whether the file is
# one JSON document rather than one record a line, the stage reading `path`)
READERS = {
    "selection": ("selection", "analysis/selection.jsonl", False,
                  lambda d, path: ["plan", "--corpus", d / "corpus.txt",
                                   "--analysis", path.parent, "--top-k", "all",
                                   "--out-dir", d / "out" / "plans"]),
    "templates": ("templates", "analysis/templates.jsonl", False,
                  lambda d, path: _run_args(d, path)),
    "report": ("report", "report.jsonl", False, lambda d, path: ["report", path]),
    "workload": ("workload", "workload.jsonl", False,
                 lambda d, path: ["simulate-record", "--topology", d / "topology.json",
                                  "--workload", path, "--out", d / "out" / "corpus.txt"]),
    "criteria": ("criteria", "criteria.json", True,
                 lambda d, path: _run_args(d, d / "analysis" / "templates.jsonl", path)),
}


def _fields(rec) -> list:
    """The path of each field of `rec` and of each field one object below."""
    paths = []
    for key, value in rec.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, inner) for inner in value)
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
        assert err.startswith(f"error: {what} {path}"), err
        assert "Traceback" not in err
