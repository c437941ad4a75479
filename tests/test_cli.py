import json
import os
import subprocess
import sys

import pytest

import resilitest
from resilitest.cli import main
from resilitest.executor import CampaignResult, save_report
from resilitest.model import load_corpus
from resilitest.sim.topology import save_topology
from resilitest.sim.workload import save_workload

from conftest import make_mini_topology, make_mini_workload


@pytest.fixture()
def mini_files(tmp_path):
    spec = make_mini_topology(bug="fire_and_forget")
    topo = tmp_path / "topology.json"
    save_topology(spec, topo)
    workload = tmp_path / "workload.jsonl"
    save_workload(make_mini_workload(spec), workload)
    return tmp_path, topo, workload


def _pipeline(tmp_path, topo, workload, seed=7, extra_run_args=()):
    corpus = tmp_path / "corpus.txt"
    analysis = tmp_path / "analysis"
    plans = tmp_path / "plans"
    report = tmp_path / "report.jsonl"
    assert main(["simulate-record", "--topology", str(topo), "--workload",
                 str(workload), "--seed", str(seed), "--out", str(corpus)]) == 0
    assert main(["analyze", "--corpus", str(corpus), "--out-dir", str(analysis)]) == 0
    assert main(["plan", "--corpus", str(corpus), "--analysis", str(analysis),
                 "--top-k", "all", "--seed", str(seed), "--out-dir", str(plans)]) == 0
    code = main(["run", "--run-plan", str(plans / "runplan.txt"),
                 "--topology", str(topo),
                 "--templates", str(analysis / "templates.jsonl"),
                 "--seed", str(seed), "--phases", "6,6,6,5",
                 "--out", str(report), *extra_run_args])
    return corpus, analysis, plans, report, code


def test_full_pipeline_produces_all_artifacts(mini_files, capsys):
    tmp_path, topo, workload = mini_files
    corpus, analysis, plans, report, code = _pipeline(tmp_path, topo, workload)
    assert code == 0
    assert (analysis / "clusters.txt").exists()
    assert (analysis / "selection.jsonl").exists()
    assert (analysis / "templates.jsonl").exists()
    assert (plans / "plan.txt").exists()
    assert (plans / "runplan.txt").exists()
    assert main(["report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "FAIL_SILENT" in out  # the seeded fire-and-forget bug surfaces


def test_plan_and_run_plan_hold_the_same_case_lines(mini_files):
    tmp_path, topo, workload = mini_files
    _corpus, _analysis, plans, _report, _code = _pipeline(tmp_path, topo, workload)
    flat = (plans / "plan.txt").read_text().splitlines()
    grouped = [line.strip() for line in (plans / "runplan.txt").read_text().splitlines()
               if not line.startswith("run ")]
    assert flat and sorted(flat) == sorted(grouped)


def test_analyze_rejects_opaque_copy_registry_kind(mini_files, capsys):
    tmp_path, topo, workload = mini_files
    corpus = tmp_path / "corpus.txt"
    registry = tmp_path / "registry.txt"
    registry.write_text("0123abcd req cursor opaque_copy  # response-chain value\n")
    assert main(["simulate-record", "--topology", str(topo), "--workload",
                 str(workload), "--out", str(corpus)]) == 0
    assert main(["analyze", "--corpus", str(corpus), "--registry", str(registry),
                 "--out-dir", str(tmp_path / "analysis")]) == 2
    assert "invalid placeholder kind 'opaque_copy'" in capsys.readouterr().err


def test_run_has_no_parallel_option(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--run-plan", "p", "--topology", "t", "--templates", "x",
              "--out", "r", "--parallel", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err


def test_analyze_has_no_drain_options(capsys):
    for flag, value in (("--tree-depth", "4"), ("--similarity-threshold", "0.5"),
                        ("--max-children", "100")):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--corpus", "c", "--out-dir", "a", flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_analyze_missing_registry_exits_2(mini_files, capsys):
    tmp_path, topo, workload = mini_files
    corpus = tmp_path / "corpus.txt"
    assert main(["simulate-record", "--topology", str(topo), "--workload",
                 str(workload), "--out", str(corpus)]) == 0
    assert main(["analyze", "--corpus", str(corpus), "--registry",
                 str(tmp_path / "no_such_file"), "--out-dir", str(tmp_path / "a")]) == 2
    assert "no_such_file" in capsys.readouterr().err


def test_corpus_with_invalid_trace_exits_2(mini_files, capsys):
    tmp_path, topo, workload = mini_files
    corpus = tmp_path / "corpus.txt"
    analysis = tmp_path / "analysis"
    assert main(["simulate-record", "--topology", str(topo), "--workload",
                 str(workload), "--out", str(corpus)]) == 0
    assert main(["analyze", "--corpus", str(corpus), "--out-dir", str(analysis)]) == 0
    # a second root: the last span of the first trace loses its parent
    header, first, *rest = corpus.read_text().splitlines()
    rec = json.loads(first)
    assert rec["trace_id"] == "t000000" and len(rec["spans"]) > 1
    rec["spans"][-1]["parent"] = None
    corpus.write_text("\n".join([header, json.dumps(rec), *rest]) + "\n")
    expected = f"line 2: trace 't000000': [multiple-roots] span {rec['spans'][-1]['id']}"
    assert main(["analyze", "--corpus", str(corpus), "--out-dir", str(analysis)]) == 2
    assert expected in capsys.readouterr().err
    assert main(["plan", "--corpus", str(corpus), "--analysis", str(analysis),
                 "--out-dir", str(tmp_path / "plans")]) == 2
    assert expected in capsys.readouterr().err


def test_invalid_last_trace_fails_analyze_and_plan_before_any_write(mini_files, capsys):
    tmp_path, topo, workload = mini_files
    corpus, analysis, plans, _report, _code = _pipeline(tmp_path, topo, workload)
    *lines, last = corpus.read_text().splitlines()
    rec = json.loads(last)
    rec["spans"][0]["dur_us"] = -1
    corpus.write_text("\n".join([*lines, json.dumps(rec)]) + "\n")
    expected = (f"line {len(lines) + 1}: trace {rec['trace_id']!r}: "
                f"[negative-duration] span {rec['spans'][0]['id']}")
    written = {p: p.read_bytes() for d in (analysis, plans) for p in d.iterdir()}

    assert main(["analyze", "--corpus", str(corpus), "--out-dir", str(analysis)]) == 2
    assert expected in capsys.readouterr().err
    assert main(["analyze", "--corpus", str(corpus),
                 "--out-dir", str(tmp_path / "analysis2")]) == 2
    assert expected in capsys.readouterr().err
    assert main(["plan", "--corpus", str(corpus), "--analysis", str(analysis),
                 "--out-dir", str(plans)]) == 2
    assert expected in capsys.readouterr().err
    assert main(["plan", "--corpus", str(corpus), "--analysis", str(analysis),
                 "--out-dir", str(tmp_path / "plans2")]) == 2
    assert expected in capsys.readouterr().err
    assert {p: p.read_bytes() for d in (analysis, plans) for p in d.iterdir()} == written
    assert not (tmp_path / "analysis2").exists()
    assert not (tmp_path / "plans2").exists()


_RUN_C1 = {"type": "test_run", "case_id": "c1", "service": "s", "endpoint": "e",
           "fault_id": "f", "verdict": "PASS"}
_SUMMARY = {"type": "summary", "verdicts": {"PASS": 1}, "endpoint_coverage": 1,
            "startup_count": 1, "reschedules": 0}


@pytest.mark.parametrize("records, message", [
    ([{"type": "test_run", "case_id": "x"}], "line 1: missing service"),
    ([[1, 2]], "line 1: expected a JSON object, got list"),
    ([_RUN_C1, {**_RUN_C1, "verdict": "FAIL_SILENT"}, {**_SUMMARY, "cases": 2}],
     "line 2: repeated case_id 'c1'"),
    ([_RUN_C1, {**_SUMMARY, "cases": 1}, {**_SUMMARY, "cases": 1}],
     "line 3: repeated type 'summary'"),
    ([_RUN_C1, {**_SUMMARY, "cases": 5}],
     "line 2: cases is 5, but the report holds 1 test_run records"),
    ([_RUN_C1, _RUN_C1, {**_SUMMARY, "cases": 1}, {**_SUMMARY, "cases": 5}],
     "line 2: repeated case_id 'c1'"),
], ids=["test-run-missing-fields", "not-an-object", "repeated-case", "second-summary",
        "count-differs", "repeats-and-two-summaries"])
def test_report_rejects_malformed_record(tmp_path, capsys, records, message):
    report = tmp_path / "report.jsonl"
    report.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    _exits_2_with_error_line(capsys, ["report", str(report)], f"report {report} {message}")


def test_report_ends_quietly_on_a_closed_output_pipe(tmp_path):
    # `resilitest report r.jsonl | head -1`, with the reader gone before any
    # output is written: a normal end of output, not an error
    report = tmp_path / "report.jsonl"
    save_report(CampaignResult(test_runs=[], startup_count=0, initial_runs=0), report)
    src = os.path.dirname(os.path.dirname(os.path.abspath(resilitest.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "resilitest.cli", "report", str(report)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr.decode()) == (0, "")


@pytest.fixture(scope="module")
def planned_files(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("planned")
    spec = make_mini_topology()
    topo = tmp_path / "topology.json"
    save_topology(spec, topo)
    workload = tmp_path / "workload.jsonl"
    save_workload(make_mini_workload(spec), workload)
    corpus = tmp_path / "corpus.txt"
    assert main(["simulate-record", "--topology", str(topo), "--workload",
                 str(workload), "--out", str(corpus)]) == 0
    assert main(["analyze", "--corpus", str(corpus),
                 "--out-dir", str(tmp_path / "analysis")]) == 0
    assert main(["plan", "--corpus", str(corpus), "--analysis",
                 str(tmp_path / "analysis"), "--out-dir", str(tmp_path / "plans")]) == 0
    return tmp_path, topo


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "expected a JSON object, got list"),
    ('{"startup_min_success": "x"}', "startup_min_success must be a finite number, got 'x'"),
    ('{"startup_min_success": true}', "startup_min_success must be a finite number, got True"),
    ('{"recover_min": 0.1}', "unknown key(s) recover_min"),
    ('{"interfaces": [1]}', "interfaces must be an object, got [1]"),
    ('{"interfaces": {"ifx": 0.5}}', "interface ifx: expected a JSON object, got float"),
    ('{"interfaces": {"ifx": {"recover_min": 0.1}}}',
     "interface ifx: unknown key(s) recover_min"),
    ('{"interfaces": {"ifx": {"inject_max_success": 0.9}}}',
     "interface ifx: criteria must satisfy"),
    ('{"inject_max_success": 0.9}', "globals: criteria must satisfy"),
    ("{broken", "Expecting property name"),
], ids=["list", "string-value", "bool-value", "unknown-key", "interfaces-list",
        "override-not-object", "unknown-override-key", "override-order",
        "global-order", "not-json"])
def test_run_rejects_bad_criteria_before_any_case(planned_files, capsys, text, message):
    tmp_path, topo = planned_files
    criteria = tmp_path / "criteria.json"
    criteria.write_text(text)
    report = tmp_path / "report.jsonl"
    code = main(["run", "--run-plan", str(tmp_path / "plans" / "runplan.txt"),
                 "--topology", str(topo),
                 "--templates", str(tmp_path / "analysis" / "templates.jsonl"),
                 "--phases", "6,6,6,5", "--criteria", str(criteria),
                 "--out", str(report)])
    assert code == 2
    assert f"error: criteria {criteria}: {message}" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--run-plan", "p", "--topology", "t", "--templates", "x", "--out", "r",
      "--phases", "0,1,1,5"], "argument --phases: phase durations must be positive"),
    (["analyze", "--corpus", "c", "--out-dir", "a", "--weights", "0.5,0.5,0.5"],
     "argument --weights: weights must sum to 1"),
    (["analyze", "--corpus", "c", "--out-dir", "a", "--weights", "nan,0.5,0.5"],
     "argument --weights: weight nan outside [0, 1]"),
    (["plan", "--corpus", "c", "--analysis", "a", "--out-dir", "p", "--top-k", "0"],
     "argument --top-k: --top-k must be >= 1 or 'all'"),
    (["plan", "--corpus", "c", "--analysis", "a", "--out-dir", "p", "--n-services", "0"],
     "argument --n-services: --n-services must be >= 1, got 0"),
], ids=["zero-phase", "weights-sum", "weights-nan", "top-k-zero", "n-services-zero"])
def test_rejected_argument_values_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


OLD_FORMAT_TEMPLATE = {"interface_id": "if0", "base_trace": {"trace_id": "t000000"},
                          "dynamic_paths": [], "placeholder_kinds": {}}


@pytest.mark.parametrize("record, message", [
    (OLD_FORMAT_TEMPLATE, "missing trace_id"),
    ({"interface_id": "if0", "trace_id": "t000000", "line": "GET /a/b/c",
      "payload": {"k": "v"}, "placeholders": {"k": "opaque_copy"}},
     "unknown placeholder kind 'opaque_copy' for 'k'"),
    ({"interface_id": "if0", "trace_id": "t000000", "line": "GET /a/b/c",
      "payload": {"item": [1]}, "placeholders": {}},
     "payload value of 'item' must not be a list or object, got [1]"),
], ids=["old-format", "unknown-kind", "list-value"])
def test_run_rejects_malformed_templates(planned_files, tmp_path, capsys, record, message):
    planned, topo = planned_files
    templates = tmp_path / "templates.jsonl"
    templates.write_text(json.dumps(record) + "\n")
    report = tmp_path / "report.jsonl"
    assert main(["run", "--run-plan", str(planned / "plans" / "runplan.txt"),
                 "--topology", str(topo), "--templates", str(templates),
                 "--phases", "6,6,6,5", "--out", str(report)]) == 2
    assert f"error: templates {templates} line 1: {message}" in capsys.readouterr().err
    assert not report.exists()


def _repeat_key(records, key):
    """The first two records, the second taking the first's `key`."""
    return [records[0], {**records[1], key: records[0][key]}]


@pytest.mark.parametrize("key", ["interface_id", "trace_id"])
def test_run_rejects_templates_repeating_a_key(planned_files, tmp_path, capsys, key):
    planned, topo = planned_files
    lines = (planned / "analysis" / "templates.jsonl").read_text().splitlines()
    records = _repeat_key([json.loads(line) for line in lines], key)
    templates = tmp_path / "templates.jsonl"
    templates.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    report = tmp_path / "report.jsonl"
    assert main(["run", "--run-plan", str(planned / "plans" / "runplan.txt"),
                 "--topology", str(topo), "--templates", str(templates),
                 "--phases", "6,6,6,5", "--out", str(report)]) == 2
    assert (f"error: templates {templates} line 2: repeated {key} {records[0][key]!r}"
            in capsys.readouterr().err)
    assert not report.exists()


@pytest.mark.parametrize("key", ["interface_id", "trace_id"])
def test_plan_rejects_selection_repeating_a_key(planned_files, tmp_path, capsys, key):
    planned, _topo = planned_files
    analysis = tmp_path / "analysis"
    analysis.mkdir()
    lines = (planned / "analysis" / "selection.jsonl").read_text().splitlines()
    records = _repeat_key([json.loads(line) for line in lines], key)
    selection = analysis / "selection.jsonl"
    selection.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    assert main(["plan", "--corpus", str(planned / "corpus.txt"), "--analysis",
                 str(analysis), "--top-k", "all", "--out-dir", str(tmp_path / "plans")]) == 2
    assert (f"error: selection {selection} line 2: repeated {key} {records[0][key]!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "plans").exists()


@pytest.mark.parametrize("kinds", [("fresh_id", "timestamp"), ("timestamp", "fresh_id"),
                                   ("fresh_id", "fresh_id")],
                         ids=["fresh-then-timestamp", "timestamp-then-fresh", "same-kind"])
def test_analyze_rejects_a_key_path_listed_twice_for_one_interface(planned_files, tmp_path,
                                                                   capsys, kinds):
    planned, _topo = planned_files
    registry = tmp_path / "registry.txt"
    registry.write_text("".join(f"ifx req sig {kind}\n" for kind in kinds))
    assert main(["analyze", "--corpus", str(planned / "corpus.txt"), "--registry",
                 str(registry), "--out-dir", str(tmp_path / "analysis")]) == 2
    assert (f"error: registry {registry} line 2: key-path 'sig' listed twice for "
            f"interface ifx" in capsys.readouterr().err)
    assert not (tmp_path / "analysis").exists()


def test_analyze_rejects_resp_registry_side(planned_files, tmp_path, capsys):
    planned, _topo = planned_files
    registry = tmp_path / "registry.txt"
    registry.write_text("0123abcd resp chain.token timestamp\n")
    assert main(["analyze", "--corpus", str(planned / "corpus.txt"), "--registry",
                 str(registry), "--out-dir", str(tmp_path / "analysis")]) == 2
    assert f"registry {registry} line 1: invalid payload side 'resp'" in capsys.readouterr().err


def test_plan_rejects_selection_record_without_trace_id(planned_files, tmp_path, capsys):
    planned, _topo = planned_files
    analysis = tmp_path / "analysis"
    analysis.mkdir()
    first = json.loads((planned / "analysis" / "selection.jsonl").read_text().splitlines()[0])
    del first["trace_id"]
    selection = analysis / "selection.jsonl"
    selection.write_text(json.dumps(first) + "\n")
    assert main(["plan", "--corpus", str(planned / "corpus.txt"), "--analysis",
                 str(analysis), "--out-dir", str(tmp_path / "plans")]) == 2
    assert f"error: selection {selection} line 1: missing trace_id" in \
        capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("interface_id", 3, "interface_id must be a string, got 3"),
    ("trace_id", ["x"], "trace_id must be a string, got ['x']"),
    ("aggregate_score", "high", "aggregate_score must be a finite number, got 'high'"),
    ("trace_score", True, "trace_score must be a finite number, got True"),
    ("aggregate_score", float("nan"), "aggregate_score must be a finite number, got nan"),
], ids=["interface-id-number", "trace-id-list", "score-string", "score-bool", "score-nan"])
def test_plan_rejects_selection_field_of_wrong_type(planned_files, tmp_path, capsys,
                                                    field, value, message):
    planned, _topo = planned_files
    analysis = tmp_path / "analysis"
    analysis.mkdir()
    first = json.loads((planned / "analysis" / "selection.jsonl").read_text().splitlines()[0])
    first[field] = value
    selection = analysis / "selection.jsonl"
    selection.write_text(json.dumps(first) + "\n")
    assert main(["plan", "--corpus", str(planned / "corpus.txt"), "--analysis",
                 str(analysis), "--out-dir", str(tmp_path / "plans")]) == 2
    assert f"error: selection {selection} line 1: {message}" in capsys.readouterr().err


def test_plan_rejects_selection_line_that_is_not_json(planned_files, tmp_path, capsys):
    planned, _topo = planned_files
    analysis = tmp_path / "analysis"
    analysis.mkdir()
    selection = analysis / "selection.jsonl"
    selection.write_text("{broken\n")
    assert main(["plan", "--corpus", str(planned / "corpus.txt"), "--analysis",
                 str(analysis), "--out-dir", str(tmp_path / "plans")]) == 2
    assert f"error: selection {selection} line 1: Expecting property name" in \
        capsys.readouterr().err


@pytest.mark.parametrize("where, value, message", [
    ("trace_id", ["x"], "trace_id ['x'] and root 's0' must be strings"),
    ("span id", ["s1"], "span id ['s1'] is not a string"),
    ("span parent", ["s0"], "span parent ['s0'] is neither a string nor null"),
], ids=["trace-id-list", "span-id-list", "parent-list"])
def test_analyze_rejects_corpus_id_of_wrong_type(planned_files, tmp_path, capsys,
                                                 where, value, message):
    planned, _topo = planned_files
    header, first, *_rest = (planned / "corpus.txt").read_text().splitlines()
    rec = json.loads(first)
    assert rec["root"] == "s0" and rec["spans"][1]["parent"] == "s0"
    if where == "trace_id":
        rec["trace_id"] = value
    else:
        rec["spans"][1]["id" if where == "span id" else "parent"] = value
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{header}\n{json.dumps(rec)}\n")
    assert main(["analyze", "--corpus", str(corpus),
                 "--out-dir", str(tmp_path / "analysis")]) == 2
    assert (f"error: corpus {corpus} line 2: malformed trace record: {message}"
            in capsys.readouterr().err)


def test_catalog_matching_no_endpoint_plans_and_runs_no_case(planned_files, tmp_path,
                                                             capsys):
    planned, topo = planned_files
    catalog = tmp_path / "faults.txt"
    catalog.write_text("slow comm_latency Database:nodriver:select delay auto\n")
    plans = tmp_path / "plans"
    assert main(["plan", "--corpus", str(planned / "corpus.txt"), "--analysis",
                 str(planned / "analysis"), "--catalog", str(catalog),
                 "--out-dir", str(plans)]) == 0
    assert (plans / "runplan.txt").read_bytes() == b""
    report = tmp_path / "report.jsonl"
    assert main(["run", "--run-plan", str(plans / "runplan.txt"), "--topology", str(topo),
                 "--templates", str(planned / "analysis" / "templates.jsonl"),
                 "--catalog", str(catalog), "--out", str(report)]) == 0
    assert main(["report", str(report)]) == 0
    assert "cases:             0" in capsys.readouterr().out


def _exits_2_with_error_line(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err


def test_simulate_record_rejects_bad_topology_number(planned_files, tmp_path, capsys):
    _planned, topo = planned_files
    rec = json.loads(topo.read_text())
    rec["services"][1]["interfaces"][0]["workflow"][1]["retries"] = -1
    bad = tmp_path / "topology.json"
    bad.write_text(json.dumps(rec))
    _exits_2_with_error_line(
        capsys, ["simulate-record", "--topology", str(bad), "--workload",
                 str(tmp_path / "unread.jsonl"), "--out", str(tmp_path / "corpus.txt")],
        f"topology {bad}: front POST /front/orders/place/{{item}} step 1: "
        "retries must be an integer >= 0")
    assert not (tmp_path / "corpus.txt").exists()


_DROP = object()
PLACE_STEP = ("services", 1, "interfaces", 0, "workflow", 1)


@pytest.mark.parametrize("keys, value, message", [
    ((*PLACE_STEP, "op"), _DROP,
     "front POST /front/orders/place/{item} step 1: missing field 'op'"),
    (("services", 1, "interfaces"), 3, "front: interfaces must be a list of objects"),
    (("services",), {"front": {}}, "services must be a list of objects"),
    (("services", 1, "name"), _DROP, "services[1]: missing field 'name'"),
    ((*PLACE_STEP, "args", 0, 1), "out:abc.x",
     "front POST /front/orders/place/{item} step 1: bad arg source 'out:abc.x'"),
    (("services", 1, "interfaces", 0, "resp", 0, "source"), "lti:oops",
     "front POST /front/orders/place/{item}: response field 'order_ref' has unknown "
     "source 'lti:oops'"),
    (("services", 1, "interfaces", 0, "resp", 0, "source"), "tokens",
     "front POST /front/orders/place/{item}: response field 'order_ref' has unknown "
     "source 'tokens'"),
], ids=["step-without-op", "interfaces-number", "services-object",
        "service-without-name", "arg-source-not-a-step", "response-source-unknown",
        "response-source-not-token"])
def test_simulate_record_names_the_place_of_a_malformed_topology_record(
        planned_files, tmp_path, capsys, keys, value, message):
    _planned, topo = planned_files
    rec = json.loads(topo.read_text())
    holder = rec
    for key in keys[:-1]:
        holder = holder[key]
    if value is _DROP:
        del holder[keys[-1]]
    else:
        holder[keys[-1]] = value
    bad = tmp_path / "topology.json"
    bad.write_text(json.dumps(rec))
    _exits_2_with_error_line(
        capsys, ["simulate-record", "--topology", str(bad), "--workload",
                 str(tmp_path / "unread.jsonl"), "--out", str(tmp_path / "corpus.txt")],
        f"topology {bad}: {message}")


def test_plan_rejects_bad_catalog_line(planned_files, tmp_path, capsys):
    planned, _topo = planned_files
    catalog = tmp_path / "faults.txt"
    catalog.write_text("slow comm_latency Database:jdbc:select delay 5x\n")
    _exits_2_with_error_line(
        capsys, ["plan", "--corpus", str(planned / "corpus.txt"), "--analysis",
                 str(planned / "analysis"), "--catalog", str(catalog),
                 "--out-dir", str(tmp_path / "plans")],
        f"catalog {catalog} line 1: bad delay '5x'")


def test_analyze_rejects_malformed_root_request_line(planned_files, tmp_path, capsys):
    planned, _topo = planned_files
    header, first, *_rest = (planned / "corpus.txt").read_text().splitlines()
    rec = json.loads(first)
    rec["spans"][0]["op"] = "nonsense"
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{header}\n{json.dumps(rec)}\n")
    _exits_2_with_error_line(
        capsys, ["analyze", "--corpus", str(corpus), "--out-dir", str(tmp_path / "analysis")],
        "malformed request line 'nonsense': expected 'METHOD /path'")


def _analyze_one_root_per_interface(planned, tmp_path, key, values):
    """Analyze the first trace of each of the corpus's interfaces, the
    root request of the i-th holding `values[i]` at `key`; the templates'
    values at `key`, in trace order, as JSON text."""
    header, *lines = (planned / "corpus.txt").read_text().splitlines()
    firsts = {}
    for line in lines:
        rec = json.loads(line)
        firsts.setdefault(rec["spans"][0]["op"].rsplit("/", 1)[0], rec)
    records = sorted(firsts.values(), key=lambda rec: rec["trace_id"])
    assert len(records) == len(values)
    for rec, value in zip(records, values):
        rec["spans"][0]["req"][key] = value
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"{json.dumps(rec)}\n" for rec in records)
                      .join([f"{header}\n", ""]))
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--corpus", str(corpus), "--out-dir", str(analysis)]) == 0
    templates = [json.loads(line)
                 for line in (analysis / "templates.jsonl").read_text().splitlines()]
    return [json.dumps(t["payload"][key])
            for t in sorted(templates, key=lambda t: t["trace_id"])]


def test_analyze_keeps_equal_payload_values_of_different_types(planned_files, tmp_path):
    # 1, true and 1.0 compare equal in Python, but are three JSON values
    planned, _topo = planned_files
    assert _analyze_one_root_per_interface(planned, tmp_path, "flag", [1, True, 1.0]) \
        == ["1", "true", "1.0"]


def _analyze_with_root_values(planned, tmp_path, key, values):
    """Analyze the corpus with `values[trace_id]` set at `key` in the root
    request of each named trace; returns the analysis directory."""
    header, *lines = (planned / "corpus.txt").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for rec in records:
        if rec["trace_id"] in values:
            rec["spans"][0]["req"][key] = values[rec["trace_id"]]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"{json.dumps(rec)}\n" for rec in records)
                      .join([f"{header}\n", ""]))
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--corpus", str(corpus), "--out-dir", str(analysis)]) == 0
    return analysis


def test_analyze_takes_a_container_payload_value_in_a_cluster(planned_files, tmp_path):
    # a list is never a dynamic variable: in a root that is not its cluster's
    # base trace it changes no template
    planned, _topo = planned_files
    analysis = _analyze_with_root_values(planned, tmp_path, "weird", {"t000000": [1, 2]})
    assert (analysis / "templates.jsonl").read_bytes() == \
        (planned / "analysis" / "templates.jsonl").read_bytes()


@pytest.mark.parametrize("listed", ["t000004"], ids=["member"])
def test_analyze_keeps_a_key_holding_a_list_in_one_root_verbatim(planned_files, tmp_path,
                                                                 listed):
    # the four roots of the order interface hold distinct echoed tokens, so
    # `token` is a placeholder; a list in one of them makes it none, and the
    # base trace t000007's value stays in the template as it is
    planned, _topo = planned_files
    analysis = _analyze_with_root_values(planned, tmp_path, "token", {listed: ["tk-x"]})
    template, = [json.loads(line)
                 for line in (analysis / "templates.jsonl").read_text().splitlines()
                 if "/orders/" in line]
    assert template["trace_id"] == "t000007"
    assert template["placeholders"] == {"ts": "timestamp"}
    assert template["payload"]["token"] == "tk-000008"


@pytest.mark.parametrize("case", ["every-representative", "base-trace", "singleton-cluster"])
def test_analyze_rejects_a_container_payload_value_in_a_representative_root(
        planned_files, tmp_path, capsys, case):
    # `run` would refuse the template: the simulator keys its stores by payload values
    planned, _topo = planned_files
    header, *lines = (planned / "corpus.txt").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    representatives = [json.loads(line)["trace_id"] for line in
                       (planned / "analysis" / "templates.jsonl").read_text().splitlines()]
    if case == "every-representative":
        key, value, named, listed = "extra", [1, 2], representatives[0], representatives
    elif case == "base-trace":  # t000007 represents the order interface
        key, value, named, listed = "token", ["tk-x"], "t000007", ["t000007"]
    else:  # a trace alone in the corpus represents its interface
        records = records[:1]
        key, value, named = "extra", {"a": [3]}, records[0]["trace_id"]
        listed = [named]
    for rec in records:
        if rec["trace_id"] in listed:
            rec["spans"][0]["req"][key] = value
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"{json.dumps(rec)}\n" for rec in records)
                      .join([f"{header}\n", ""]))
    _exits_2_with_error_line(
        capsys, ["analyze", "--corpus", str(corpus), "--out-dir", str(tmp_path / "analysis")],
        f"corpus {corpus}: trace {named}: payload value of {key!r} must not be a list "
        f"or object, got {value!r}")
    assert not (tmp_path / "analysis").exists()


def test_plan_rejects_selection_trace_missing_from_corpus(planned_files, tmp_path, capsys):
    planned, _topo = planned_files
    analysis = tmp_path / "analysis"
    analysis.mkdir()
    first = json.loads((planned / "analysis" / "selection.jsonl").read_text().splitlines()[0])
    first["trace_id"] = "t999999"
    (analysis / "selection.jsonl").write_text(json.dumps(first) + "\n")
    assert main(["plan", "--corpus", str(planned / "corpus.txt"), "--analysis",
                 str(analysis), "--top-k", "1", "--out-dir", str(tmp_path / "plans")]) == 2
    assert (f"error: selection names trace 't999999' for interface "
            f"{first['interface_id']}, which the corpus does not hold") in \
        capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("x t1 PASS 1", "line 1: epoch 'x' is not an integer"),
    ("0 t1 PASS y", "line 1: sequence number 'y' is not an integer"),
])
def test_plan_rejects_history_with_non_integer_field(planned_files, tmp_path, capsys,
                                                     line, message):
    planned, _topo = planned_files
    history = tmp_path / "history.txt"
    history.write_text(line + "\n")
    assert main(["plan", "--corpus", str(planned / "corpus.txt"), "--analysis",
                 str(planned / "analysis"), "--history", str(history),
                 "--out-dir", str(tmp_path / "plans")]) == 2
    assert f"error: history {history} {message}" in capsys.readouterr().err


def test_run_rejects_run_header_without_trace(planned_files, tmp_path, capsys):
    planned, topo = planned_files
    run_plan = tmp_path / "runplan.txt"
    run_plan.write_text("run 0 cases=0\n")
    assert main(["run", "--run-plan", str(run_plan), "--topology", str(topo),
                 "--templates", str(planned / "analysis" / "templates.jsonl"),
                 "--out", str(tmp_path / "report.jsonl")]) == 2
    assert f"error: run-plan {run_plan} line 1: run header without trace=" in \
        capsys.readouterr().err


@pytest.mark.parametrize("case_line, message", [
    ("c0 t000000 x Database:jdbc:select backend db-sql-timeout r",
     "span position 'x' is not an integer"),
    ("c0 t000000 1 Database:jdbc backend db-sql-timeout r",
     "endpoint 'Database:jdbc' is not component:framework:method"),
], ids=["position", "endpoint"])
def test_run_rejects_malformed_case_line(planned_files, tmp_path, capsys,
                                         case_line, message):
    planned, topo = planned_files
    run_plan = tmp_path / "runplan.txt"
    run_plan.write_text(f"run 0 trace=t000000 cases=1\n  {case_line}\n")
    _exits_2_with_error_line(
        capsys, ["run", "--run-plan", str(run_plan), "--topology", str(topo),
                 "--templates", str(planned / "analysis" / "templates.jsonl"),
                 "--out", str(tmp_path / "report.jsonl")],
        f"run-plan {run_plan} line 2: {message}")


def _cut_last_case(lines):
    return lines[:-1]


def _bad_run_header(lines):
    return [lines[0].replace(" cases=", " count="), *lines[1:]]


def _count_not_integer(lines):
    return [lines[0].split(" cases=")[0] + " cases=x", *lines[1:]]


@pytest.mark.parametrize("edit, message", [
    (_cut_last_case, "line 1: run header says cases={n}, but {m} case lines follow it"),
    (_bad_run_header, "line 1: run header without cases="),
    (_count_not_integer, "line 1: cases= 'x' is not an integer"),
], ids=["cut", "no-count", "count-not-integer"])
def test_run_rejects_a_run_plan_cut_inside_a_run(planned_files, tmp_path, capsys,
                                                 edit, message):
    planned, topo = planned_files
    lines = (planned / "plans" / "runplan.txt").read_text().splitlines()
    first_run = [lines[0]]
    for line in lines[1:]:
        if line.startswith("run "):
            break
        first_run.append(line)
    n = len(first_run) - 1
    run_plan = tmp_path / "runplan.txt"
    run_plan.write_text("\n".join(edit(first_run)) + "\n")
    _exits_2_with_error_line(
        capsys, ["run", "--run-plan", str(run_plan), "--topology", str(topo),
                 "--templates", str(planned / "analysis" / "templates.jsonl"),
                 "--out", str(tmp_path / "report.jsonl")],
        f"run-plan {run_plan} " + message.format(n=n, m=n - 1))
    assert not (tmp_path / "report.jsonl").exists()


def test_run_rejects_a_case_listed_twice_in_a_run_plan(planned_files, tmp_path, capsys):
    planned, topo = planned_files
    header, first_case, *rest = (planned / "plans" / "runplan.txt").read_text().splitlines()
    count = int(header.rsplit("cases=", 1)[1])
    run_plan = tmp_path / "runplan.txt"
    run_plan.write_text("\n".join([header.replace(f"cases={count}", f"cases={count + 1}"),
                                   first_case, first_case, *rest]) + "\n")
    _exits_2_with_error_line(
        capsys, ["run", "--run-plan", str(run_plan), "--topology", str(topo),
                 "--templates", str(planned / "analysis" / "templates.jsonl"),
                 "--out", str(tmp_path / "report.jsonl")],
        f"run-plan {run_plan} line 3: repeated case_id {first_case.split()[0]!r}")
    assert not (tmp_path / "report.jsonl").exists()


def test_run_rejects_an_unknown_fault_before_any_case_runs(planned_files, tmp_path,
                                                           capsys, monkeypatch):
    from resilitest import executor

    planned, topo = planned_files
    lines = (planned / "plans" / "runplan.txt").read_text().splitlines()
    fields = lines[-1].split()
    fields[5] = "no-such-fault"
    lines[-1] = "  " + " ".join(fields)
    run_plan = tmp_path / "runplan.txt"
    run_plan.write_text("\n".join(lines) + "\n")
    started = []
    execute_run = executor.execute_run
    monkeypatch.setattr(executor, "execute_run",
                        lambda *args, **kwargs: started.append(args[0].trace_id)
                        or execute_run(*args, **kwargs))
    _exits_2_with_error_line(
        capsys, ["run", "--run-plan", str(run_plan), "--topology", str(topo),
                 "--templates", str(planned / "analysis" / "templates.jsonl"),
                 "--out", str(tmp_path / "report.jsonl")],
        f"run-plan {run_plan}: case {fields[0]}: unknown fault 'no-such-fault'")
    assert started == []
    assert not (tmp_path / "report.jsonl").exists()


def _back_in_time(lines):
    return [lines[0], lines[2], lines[1], *lines[3:]]


def _malformed_middle(lines):
    return [lines[0], lines[1], '{"at_us": 1}', *lines[3:]]


def _edited_middle(edit):
    """Workload edit applying `edit` to the decoded record of line 3."""
    def edited(lines):
        rec = json.loads(lines[2])
        edit(rec)
        return [lines[0], lines[1], json.dumps(rec), *lines[3:]]
    return edited


@pytest.mark.parametrize("edit, message", [
    (_back_in_time, "line 3: at_us {at1} is before the previous entry's {at2}; "
                    "entries must be in time order"),
    (_malformed_middle, "line 3: missing line"),
    (_edited_middle(lambda rec: rec.update(line=5)), "line 3: line must be a string, got 5"),
    (_edited_middle(lambda rec: rec.update(at_us=rec["at_us"] + 0.5)),
     "line 3: at_us must be an integer, got {at2}.5"),
    (_edited_middle(lambda rec: rec.update(at_us=True)),
     "line 3: at_us must be an integer, got True"),
    (_edited_middle(lambda rec: rec.update(payload=[["key", "k"]])),
     "line 3: payload must be an object, got [['key', 'k']]"),
    (_edited_middle(lambda rec: rec["payload"].update(key=[1, 2])),
     "line 3: payload value of 'key' must not be a list or object, got [1, 2]"),
    (_edited_middle(lambda rec: rec["payload"].update(token={"a": 1})),
     "line 3: payload value of 'token' must not be a list or object, got {{'a': 1}}"),
], ids=["back-in-time", "malformed", "line-not-string", "float-time", "bool-time",
        "payload-not-object", "list-value", "object-value"])
def test_simulate_record_rejects_a_bad_workload_line_and_keeps_the_corpus(
        mini_files, capsys, edit, message):
    tmp_path, topo, workload = mini_files
    corpus = tmp_path / "corpus.txt"
    argv = ["simulate-record", "--topology", str(topo), "--workload", str(workload),
            "--out", str(corpus)]
    assert main(argv) == 0
    recorded = corpus.read_bytes()
    lines = workload.read_text().splitlines()
    at1, at2 = (json.loads(lines[i])["at_us"] for i in (1, 2))
    workload.write_text("\n".join(edit(lines)) + "\n")
    capsys.readouterr()
    _exits_2_with_error_line(capsys, argv, f"workload {workload} "
                             + message.format(at1=at1, at2=at2))
    assert corpus.read_bytes() == recorded
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["corpus.txt", "topology.json", "workload.jsonl"]


def test_seed_determinism_byte_identical_files(tmp_path):
    spec = make_mini_topology()
    topo = tmp_path / "topology.json"
    save_topology(spec, topo)
    workload = tmp_path / "workload.jsonl"
    save_workload(make_mini_workload(spec), workload)

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        out.mkdir()
        _pipeline(out, topo, workload, seed=11)
    for name in ("corpus.txt", "report.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert (out_a / "analysis" / "templates.jsonl").read_bytes() == \
        (out_b / "analysis" / "templates.jsonl").read_bytes()


def test_zero_length_workload_empty_corpus(tmp_path):
    spec = make_mini_topology()
    topo = tmp_path / "topology.json"
    save_topology(spec, topo)
    workload = tmp_path / "empty.jsonl"
    workload.write_text("")
    corpus = tmp_path / "corpus.txt"
    assert main(["simulate-record", "--topology", str(topo), "--workload",
                 str(workload), "--out", str(corpus)]) == 0
    assert load_corpus(corpus).traces == []


def test_fail_on_vulnerability_exit_code(mini_files):
    tmp_path, topo, workload = mini_files
    *_rest, code = _pipeline(tmp_path, topo, workload,
                             extra_run_args=("--fail-on-vulnerability",))
    assert code == 1


def test_entry_only_oracle_masks_the_silent_bug(mini_files):
    tmp_path, topo, workload = mini_files
    *_rest, report, code = _pipeline(tmp_path, topo, workload,
                                     extra_run_args=("--entry-only-oracle",))
    assert code == 0
    verdicts = set()
    for line in report.read_text().splitlines():
        rec = json.loads(line)
        if rec.get("type") == "test_run":
            verdicts.add(rec["verdict"])
    assert "FAIL_SILENT" not in verdicts


def test_analyze_empty_corpus_is_an_error(tmp_path, capsys):
    spec = make_mini_topology()
    topo = tmp_path / "topology.json"
    save_topology(spec, topo)
    workload = tmp_path / "empty.jsonl"
    workload.write_text("")
    corpus = tmp_path / "corpus.txt"
    main(["simulate-record", "--topology", str(topo), "--workload", str(workload),
          "--out", str(corpus)])
    assert main(["analyze", "--corpus", str(corpus),
                 "--out-dir", str(tmp_path / "analysis")]) == 2
    assert "empty corpus" in capsys.readouterr().err


def test_plan_with_history_skips_fully_passed_interfaces(mini_files):
    tmp_path, topo, workload = mini_files
    corpus, analysis, plans, report, _ = _pipeline(tmp_path, topo, workload)
    history = tmp_path / "history.txt"
    args = ["run", "--run-plan", str(plans / "runplan.txt"), "--topology",
            str(topo), "--templates", str(analysis / "templates.jsonl"),
            "--seed", "7", "--phases", "6,6,6,5", "--history", str(history),
            "--out", str(tmp_path / "r.jsonl")]
    assert main(args) == 0
    plans2 = tmp_path / "plans2"
    assert main(["plan", "--corpus", str(corpus), "--analysis", str(analysis),
                 "--top-k", "all", "--seed", "7", "--history", str(history),
                 "--out-dir", str(plans2)]) == 0
    first = (plans / "plan.txt").read_text().splitlines()
    second = (plans2 / "plan.txt").read_text().splitlines()
    assert len(second) < len(first)  # passed cases no longer planned


def test_bad_paths_exit_2(tmp_path, capsys):
    assert main(["simulate-record", "--topology", str(tmp_path / "nope.json"),
                 "--workload", str(tmp_path / "w.jsonl"),
                 "--out", str(tmp_path / "c.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_corpus_reported(tmp_path, capsys):
    bad = tmp_path / "corpus.txt"
    bad.write_text("resilitest-corpus v1 seed=1 topology=00\n{broken\n")
    assert main(["analyze", "--corpus", str(bad),
                 "--out-dir", str(tmp_path / "x")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_history_across_runs_skips_passed_cases(mini_files):
    tmp_path, topo, workload = mini_files
    corpus, analysis, plans, report, code = _pipeline(tmp_path, topo, workload)
    history = tmp_path / "history.txt"
    report2 = tmp_path / "report2.jsonl"
    args = ["run", "--run-plan", str(plans / "runplan.txt"), "--topology",
            str(topo), "--templates", str(analysis / "templates.jsonl"),
            "--seed", "7", "--phases", "6,6,6,5", "--history", str(history),
            "--out", str(report2)]
    assert main(args) == 0
    first_cases = _count_cases(report2)
    report3 = tmp_path / "report3.jsonl"
    assert main(args[:-1] + [str(report3)]) == 0
    second_cases = _count_cases(report3)
    assert second_cases < first_cases  # passed cases skipped on the second run

    # reset-history makes everything eligible again
    report4 = tmp_path / "report4.jsonl"
    assert main(args[:-1] + [str(report4), "--reset-history"]) == 0
    assert _count_cases(report4) == first_cases


def _five_run_plan(tmp_path, topo, workload):
    """The mini campaign's 15 cases, planned as one run, re-split into runs of
    1 to 5 cases on the same trace, so that the waves of `run` hold several
    runs; the run-plan and templates paths."""
    _corpus, analysis, plans, _report, _code = _pipeline(tmp_path, topo, workload)
    header, *cases = (plans / "runplan.txt").read_text().splitlines()
    assert header.endswith(" cases=15")
    trace = header.split()[2]
    lines = []
    for index, size in enumerate(range(1, 6)):
        lines += [f"run {index} {trace} cases={size}", *cases[:size]]
        del cases[:size]
    run_plan = tmp_path / "five-runs.txt"
    run_plan.write_text("".join(f"{line}\n" for line in lines))
    return run_plan, analysis / "templates.jsonl"


def test_report_and_history_do_not_depend_on_the_cpu_count(mini_files, monkeypatch):
    tmp_path, topo, workload = mini_files
    run_plan, templates = _five_run_plan(tmp_path, topo, workload)
    outputs = set()
    for cpus in (1, 2, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid, n=cpus: set(range(n)))
        report, history = tmp_path / f"report-{cpus}.jsonl", tmp_path / f"history-{cpus}.txt"
        assert main(["run", "--run-plan", str(run_plan), "--topology", str(topo),
                     "--templates", str(templates), "--seed", "7", "--phases", "6,6,6,5",
                     "--history", str(history), "--out", str(report)]) == 0
        outputs.add((report.read_bytes(), history.read_bytes()))
    assert len(outputs) == 1
    summary = json.loads(outputs.pop()[0].splitlines()[-1])
    assert (summary["initial_runs"], summary["reschedules"] > 0) == (5, True)


def test_run_workers_never_flush_the_parents_stdout(mini_files):
    # output buffered at the fork must reach the file once, from the parent
    tmp_path, topo, workload = mini_files
    run_plan, templates = _five_run_plan(tmp_path, topo, workload)
    argv = ["run", "--run-plan", str(run_plan), "--topology", str(topo),
            "--templates", str(templates), "--phases", "6,6,6,5",
            "--out", str(tmp_path / "report2.jsonl")]
    script = ("import os, sys\n"
              "from resilitest.cli import main\n"
              "os.sched_getaffinity = lambda _pid: {0, 1}\n"
              "print('before run')\n"
              f"sys.exit(main({argv!r}))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(resilitest.__file__)))
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with open(tmp_path / "stdout.txt", "wb") as out:
        done = subprocess.run([sys.executable, "-c", script], stdout=out,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    assert (done.returncode, done.stderr.decode()) == (0, "")
    lines = (tmp_path / "stdout.txt").read_text().splitlines()
    assert len(lines) == 2 and lines[0] == "before run" and " cases, startups=" in lines[1]


def _count_cases(report_path):
    count = 0
    for line in report_path.read_text().splitlines():
        rec = json.loads(line)
        if rec.get("type") == "test_run":
            count += 1
    return count


def test_report_table_across_k_values(tmp_path, capsys):
    spec = make_mini_topology()
    topo = tmp_path / "topology.json"
    save_topology(spec, topo)
    workload = tmp_path / "workload.jsonl"
    save_workload(make_mini_workload(spec), workload)
    corpus = tmp_path / "corpus.txt"
    analysis = tmp_path / "analysis"
    main(["simulate-record", "--topology", str(topo), "--workload", str(workload),
          "--seed", "3", "--out", str(corpus)])
    main(["analyze", "--corpus", str(corpus), "--out-dir", str(analysis)])
    reports = []
    for k in ("1", "all"):
        plans = tmp_path / f"plans{k}"
        report = tmp_path / f"report{k}.jsonl"
        main(["plan", "--corpus", str(corpus), "--analysis", str(analysis),
              "--top-k", k, "--seed", "3", "--out-dir", str(plans)])
        main(["run", "--run-plan", str(plans / "runplan.txt"), "--topology",
              str(topo), "--templates", str(analysis / "templates.jsonl"),
              "--seed", "3", "--phases", "6,6,6,5", "--top-k", k,
              "--out", str(report)])
        reports.append(str(report))
    capsys.readouterr()
    assert main(["report", *reports]) == 0
    out = capsys.readouterr().out
    assert "top-K" in out
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith(" " * 30)]
    assert len(lines) >= 3  # header + one row per report
