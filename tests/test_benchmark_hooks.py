"""The benchmark's tracer patches program functions by name; a rename must
fail here rather than only when the benchmark runs."""

import os

from resilitest import campaign
from resilitest.campaign import analyze_corpus
from resilitest.faults import default_catalog
from resilitest.planner import PlanConfig
from resilitest.sim.engine import record_corpus

from conftest import make_mini_topology, make_mini_workload

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


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
