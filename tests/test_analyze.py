"""`analyze` through the CLI: what its one pass keeps in memory, the
templates its stage 2 confirms on a hand-made corpus, and which of two
errors in one corpus it reports."""

import contextlib
import io
import json
import tracemalloc

import pytest

from resilitest.aggregation import WILDCARD, interface_digest
from resilitest.cli import main
from resilitest.model import CorpusMeta, save_corpus
from resilitest.refassets import build_reference_workload
from resilitest.sim.topology import save_topology
from resilitest.sim.workload import save_workload

from conftest import make_span, make_trace, root_span, trace_to_record
from reference_system import build_reference_topology

# bytes a trace may add to the traced peak of `analyze`: its ID, its place in
# the file and in its cluster, and three numbers; a root span per trace is more
PEAK_BYTES_PER_TRACE = 450


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


def _analyze_peak(corpus, out) -> int:
    """The traced peak, in bytes, of one `analyze` of `corpus`."""
    tracemalloc.start()
    try:
        assert _run(["analyze", "--corpus", corpus, "--out-dir", out]) == (0, "")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analyze_peak_grows_by_less_than_a_root_span_per_trace(tmp_path):
    topology = tmp_path / "topology.json"
    save_topology(build_reference_topology(), topology)
    traces = {}
    for per_interface in (5, 20):
        workload = tmp_path / f"workload-{per_interface}.jsonl"
        save_workload(build_reference_workload(build_reference_topology(),
                                               per_interface=per_interface), workload)
        corpus = tmp_path / f"corpus-{per_interface}.txt"
        assert _run(["simulate-record", "--topology", topology, "--workload", workload,
                     "--seed", 7, "--out", corpus]) == (0, "")
        traces[per_interface] = corpus
    _analyze_peak(traces[5], tmp_path / "warm-up")  # one-time allocations
    small = _analyze_peak(traces[5], tmp_path / "small")
    large = _analyze_peak(traces[20], tmp_path / "large")
    added = 204 * (20 - 5)  # 204 interfaces
    assert (large - small) / added < PEAK_BYTES_PER_TRACE, (small, large)


# A corpus of three interfaces. POST /a/item/<n>: four comparable roots whose
# request keys cover each stage-2 rule; GET /b/<n>: two roots of different
# services, so not comparable; GET /c/one: a single root. The recording
# window is [0, 3900].


def _a_root(n, req, resp):
    return root_span(f"s{n}", f"POST /a/item/{n}", req=req, resp=resp,
                     start=n * 1000, dur=900, method="post")


def _stage_two_traces() -> list:
    ts = [str(n * 1000 + 5) for n in range(4)]  # one in each root's own span
    a = [
        # ts: integer strings inside the window; tok: fresh strings; big:
        # integer strings outside it; mix: a float and a bool among
        # integers; half: an integer string, a float and a word; same: 1,
        # 1.0 and true; gone: absent from the last root; lst: a list in
        # the third; const: one value throughout
        {"ts": ts[n], "tok": f"tk-{n}", "big": str(10 ** 9 + n),
         "mix": ["7", 2.5, True, 3][n], "half": ["10", 2.5, "abc", "11"][n],
         "same": [1, 1.0, True, 1][n], "gone": f"g-{n}", "lst": f"l-{n}",
         "const": "k"}
        for n in range(4)]
    del a[3]["gone"]
    a[2]["lst"] = ["l-2"]
    traces = []
    for n, req in enumerate(a):
        resp = {f"echo-{key}": value for key, value in req.items()
                if not isinstance(value, list)}
        resp["echo-lst"] = f"l-{n}"
        traces.append(make_trace(f"t{n}", [_a_root(n, req, resp)]))
    for n, service in enumerate(["svc", "other"], start=4):
        req = {"tok": f"b-{n}"}
        traces.append(make_trace(f"t{n}", [root_span(
            f"s{n}", f"GET /b/{n}", req=req, resp={"echo": f"b-{n}"}, service=service,
            start=n * 10, dur=10)]))
    child = make_span("c6", "s6", start=610, dur=10)
    traces.append(make_trace("t6", [root_span("s6", "GET /c/one", req={"id": "x"},
                                              resp={"id": "x"}, start=600, dur=50),
                                    child]))
    return traces


A_ID = interface_digest("POST", ["a", "item", WILDCARD])
B_ID = interface_digest("GET", ["b", WILDCARD])


def test_stage_two_templates_of_a_hand_made_corpus_are_pinned(tmp_path):
    corpus = tmp_path / "corpus.txt"
    save_corpus(map(trace_to_record, _stage_two_traces()), corpus, CorpusMeta(0, "00"))
    registry = tmp_path / "registry.txt"
    registry.write_text(f"{A_ID} req const timestamp\n{A_ID} req absent fresh_id\n"
                        f"{B_ID} req nowhere fresh_id\n")
    out = tmp_path / "analysis"
    assert _run(["analyze", "--corpus", corpus, "--registry", registry,
                 "--out-dir", out]) == (0, "")
    records = [json.loads(line) for line in (out / "templates.jsonl").read_text().splitlines()]
    assert records == [
        {"interface_id": B_ID, "trace_id": "t4", "line": "GET /b/4",
         "payload": {"tok": "b-4"}, "placeholders": {}},
        {"interface_id": interface_digest("GET", ["c", "one"]), "trace_id": "t6",
         "line": "GET /c/one", "payload": {"id": "x"}, "placeholders": {}},
        {"interface_id": A_ID, "trace_id": "t0", "line": "POST /a/item/0",
         "payload": {"ts": "5", "tok": "tk-0", "big": "1000000000", "mix": "7",
                     "half": "10", "same": 1, "gone": "g-0", "lst": "l-0", "const": "k"},
         "placeholders": {"ts": "timestamp", "tok": "fresh_id", "big": "fresh_id",
                          "mix": "timestamp", "half": "fresh_id", "const": "timestamp"}},
    ]


def _broken_corpus(tmp_path, bad_line_at=None, broken_span_at=None) -> tuple:
    """The hand-made corpus, its trace at `bad_line_at` holding a request
    line that does not parse and its trace at `broken_span_at` a span whose
    parent is missing; (path, the broken trace's line number)."""
    records = list(map(trace_to_record, _stage_two_traces()))
    if bad_line_at is not None:
        records[bad_line_at]["spans"][0]["op"] = "nonsense"
    if broken_span_at is not None:
        records[broken_span_at]["spans"][-1]["parent"] = "nowhere"
    corpus = tmp_path / "corpus.txt"
    save_corpus(records, corpus, CorpusMeta(0, "00"))
    return corpus, None if broken_span_at is None else broken_span_at + 2


def test_a_broken_span_after_a_bad_request_line_is_the_error_reported(tmp_path):
    # every trace is validated before any is clustered
    corpus, line = _broken_corpus(tmp_path, bad_line_at=1, broken_span_at=6)
    assert _run(["analyze", "--corpus", corpus, "--out-dir", tmp_path / "out"]) == (
        2, f"error: corpus {corpus} line {line}: trace 't6': [dangling-parent] span c6: "
           f"parent 'nowhere' not in trace\n")
    assert not (tmp_path / "out").exists()


def test_the_first_bad_request_line_is_reported_once_every_trace_is_valid(tmp_path):
    corpus, _line = _broken_corpus(tmp_path, bad_line_at=1)
    lines = corpus.read_text().splitlines()
    rec = json.loads(lines[5])  # trace t4, after the header and t0-t3
    rec["spans"][0]["op"] = "GET"
    lines[5] = json.dumps(rec)
    corpus.write_text("".join(f"{line}\n" for line in lines))
    assert _run(["analyze", "--corpus", corpus, "--out-dir", tmp_path / "out"]) == (
        2, f"error: corpus {corpus}: trace t1: malformed request line 'nonsense': "
           f"expected 'METHOD /path'\n")


@pytest.mark.parametrize("registry_line", ["x req k opaque\n", "x resp k fresh_id\n"])
def test_a_bad_registry_is_reported_before_a_bad_request_line(tmp_path, registry_line):
    corpus, _line = _broken_corpus(tmp_path, bad_line_at=1)
    registry = tmp_path / "registry.txt"
    registry.write_text(registry_line)
    code, err = _run(["analyze", "--corpus", corpus, "--registry", registry,
                      "--out-dir", tmp_path / "out"])
    assert code == 2 and err.startswith(f"error: registry {registry} line 1: "), err


def test_an_infinite_value_makes_a_fresh_id_not_a_crash(tmp_path):
    # int(inf) raises OverflowError, which once escaped as a traceback
    traces = [make_trace(f"t{n}", [root_span(f"s{n}", f"GET /a/{n}", req={"x": value},
                                             resp={"x": value}, start=n * 100, dur=50)])
              for n, value in enumerate([float("inf"), 1.0])]
    corpus = tmp_path / "corpus.txt"
    save_corpus(map(trace_to_record, traces), corpus, CorpusMeta(0, "00"))
    out = tmp_path / "analysis"
    assert _run(["analyze", "--corpus", corpus, "--out-dir", out]) == (0, "")
    (record,) = [json.loads(line) for line in (out / "templates.jsonl").read_text().splitlines()]
    assert record["placeholders"] == {"x": "fresh_id"}
