"""The benchmark's tracer patches program functions by name, its checks call
the program's loaders and replay check, and its runner generates workloads
with the program's workload generator; a rename must fail here rather than
only when the benchmark runs."""

import os

from resilitest import campaign
from resilitest.campaign import analyze_corpus
from resilitest.cli import main
from resilitest.executor import OracleCriteria, PhaseConfig, run_batch
from resilitest.faults import default_catalog
from resilitest.planner import PlanConfig
from resilitest.scheduler import greedy_batch
from resilitest.sim.engine import record_corpus

from conftest import make_mini_topology, make_mini_workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
ASSETS = os.path.join(ROOT, "src", "resilitest", "assets")


def test_tracer_spans_planning(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer

    spec = make_mini_topology()
    analysis = analyze_corpus(record_corpus(spec, make_mini_workload(spec), seed=5))
    tracer = Tracer()
    tracer.install()
    try:
        _selected, cases = campaign.plan_campaign(
            analysis.ranked, analysis.corpus, default_catalog(), "all", PlanConfig())
    finally:
        tracer.uninstall()
    assert cases
    _seconds, calls, _self_s = tracer.totals()
    for name in ("campaign.plan_campaign", "planner.plan_targets",
                 "planner.sample_services"):
        assert calls[name] > 0, name


def test_tracer_counts_the_run_stage(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer

    spec = make_mini_topology()
    analysis = analyze_corpus(record_corpus(spec, make_mini_workload(spec), seed=5))
    catalog = default_catalog()
    _selected, cases = campaign.plan_campaign(
        analysis.ranked, analysis.corpus, catalog, 1, PlanConfig())
    phases = PhaseConfig(2_000_000, 2_000_000, 2_000_000, 5)
    tracer = Tracer()
    tracer.install()
    try:
        result = run_batch(greedy_batch(cases[:2]), spec, list(analysis.templates.values()),
                           catalog, phases, OracleCriteria())
    finally:
        tracer.uninstall()
    assert result.test_runs
    for name in ("sim.systems_started", "sim.requests_posted", "sim.virtual_us",
                 "executor.cases"):
        assert tracer.counts[name] > 0, name


def test_setup_check_passes_on_the_reference_campaign(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    from checks import Truth, check_setup

    cfg = {"topology": os.path.join(ASSETS, "reference_topology.json"),
           "workload": os.path.join(ASSETS, "reference_workload.jsonl"),
           "registry": os.path.join(ASSETS, "reference_registry.txt"),
           "per_interface": 5, "seed": 7}
    assert main(["simulate-record", "--topology", cfg["topology"], "--workload",
                 cfg["workload"], "--seed", "7", "--out", str(tmp_path / "corpus.txt")]) == 0
    assert main(["analyze", "--corpus", str(tmp_path / "corpus.txt"), "--registry",
                 cfg["registry"], "--out-dir", str(tmp_path / "analysis")]) == 0
    assert check_setup(str(tmp_path), Truth(cfg["topology"]), cfg) == []


def test_runner_generates_the_corpus_scale_workload(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    from run import prepare

    cfg = prepare("corpus-scale", str(tmp_path), False, 1.0)
    with open(cfg["workload"], "r", encoding="utf-8") as fh:
        assert sum(1 for _line in fh) == 20_400  # 100 requests for each of 204 interfaces
