"""The workload process: drives the five CLI stages and times them.

    python3 perfbench/worker.py <config.json>

``run.py`` starts one of these per benchmark run, so each workload runs in
its own single-threaded process and its peak resident memory is the
workload's alone. The config names the inputs and the work directory; the
result goes to ``result.json`` there. The stages run through
``resilitest.cli.main`` with real artifact files. Untraced, the process
repeats the set-up stages around the campaign, because set-up is shorter than
the host's slow phases; traced, it runs the campaign once untraced and once
traced, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

SETUP_STAGES = ("simulate_record", "analyze", "plan")
STAGES = SETUP_STAGES + ("run", "report")


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that calls none of the program."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def stage_argv(stage: str, cfg: dict, out: str) -> list:
    corpus = os.path.join(out, "corpus.txt")
    analysis = os.path.join(out, "analysis")
    plans = os.path.join(out, "plans")
    seed = str(cfg["seed"])
    if stage == "simulate_record":
        return ["simulate-record", "--topology", cfg["topology"],
                "--workload", cfg["workload"], "--seed", seed, "--out", corpus]
    if stage == "analyze":
        return ["analyze", "--corpus", corpus, "--registry", cfg["registry"],
                "--out-dir", analysis]
    if stage == "plan":
        return ["plan", "--corpus", corpus, "--analysis", analysis,
                "--top-k", cfg["top_k"], "--n-services", str(cfg["n_services"]),
                "--seed", seed, "--out-dir", plans]
    if stage == "run":
        return ["run", "--run-plan", os.path.join(plans, "runplan.txt"),
                "--topology", cfg["topology"],
                "--templates", os.path.join(analysis, "templates.jsonl"),
                "--seed", seed, "--phases", cfg["phases"], "--top-k", cfg["top_k"],
                "--out", os.path.join(out, "report.jsonl")]
    return ["report", os.path.join(out, "report.jsonl")]


class StageFailed(Exception):
    def __init__(self, stage: str, code: int, out: str):
        super().__init__(f"stage {stage} exited {code}")
        self.stage = stage
        self.code = code
        self.out = out


def run_stages(stages, cfg: dict, out: str, call) -> dict:
    """Seconds per stage; ``call(stage, fn, argv)`` runs one CLI invocation."""
    from resilitest import cli

    os.makedirs(out, exist_ok=True)
    seconds = {}
    for stage in stages:
        argv = stage_argv(stage, cfg, out)
        start = time.perf_counter()
        code = call(stage, cli.main, argv)
        seconds[stage] = time.perf_counter() - start
        if code != 0:
            raise StageFailed(stage, code, out)
    return seconds


def plain_call(_stage, fn, argv):
    return fn(argv)


def campaign(cfg: dict, result: dict, name: str, call=plain_call) -> dict:
    """All five stages into ``work/<name>``; returns seconds per stage."""
    out = os.path.join(cfg["work"], name)
    stages = run_stages(STAGES, cfg, out, call)
    result["rounds"].append({"dir": out, "stages": stages, "wall_s": sum(stages.values()),
                             "traced": call is not plain_call})
    result["dirs"].append(out)
    return stages


def untraced(cfg: dict, result: dict) -> None:
    """Extra set-ups around the campaigns; campaigns until ``seconds`` measured."""
    setup_times = result["setup_s"]

    def setup(index):
        out = os.path.join(cfg["work"], f"setup-{index}")
        setup_times.append(sum(run_stages(SETUP_STAGES, cfg, out, plain_call).values()))
        result["dirs"].append(out)

    for index in range(cfg["setups"]):
        setup(index)
    result["ref_loop_s"].append(reference_loop())
    rounds = result["rounds"]
    while not rounds or sum(r["wall_s"] for r in rounds) < cfg["seconds"]:
        stages = campaign(cfg, result, f"round-{len(rounds)}")
        setup_times.append(sum(stages[s] for s in SETUP_STAGES))
    result["ref_loop_s"].append(reference_loop())
    for index in range(cfg["setups"]):
        setup(cfg["setups"] + index)


def traced(cfg: dict, result: dict) -> None:
    """One untraced campaign, then the same campaign traced."""
    from tracer import Tracer

    campaign(cfg, result, "round-0")
    result["ref_loop_s"].append(reference_loop())
    tracer = Tracer()
    tracer.install()
    try:
        campaign(cfg, result, "traced",
                 lambda stage, fn, argv: tracer.call(f"cli.{stage}", fn, argv))
    finally:
        tracer.uninstall()
    result["layers"] = layer_metrics(tracer)
    untraced_round, traced_round = result["rounds"]
    result["layers"]["trace.overhead_s"] = (
        traced_round["wall_s"] - untraced_round["wall_s"], "s")
    tracer.write(cfg["spans"])


def layer_metrics(tracer) -> dict:
    """Per-layer metric name -> (value, unit) from the traced campaign."""
    seconds, calls, self_s = tracer.totals()
    counts = tracer.counts
    metrics = {f"cli.{stage}_s": (seconds[f"cli.{stage}"], "s") for stage in STAGES}
    for name in ("model.save_corpus", "model.load_corpus", "sim.record_corpus",
                 "sim.run_until", "sim.endpoint_stats", "sim.entry_metrics",
                 "sim.load_topology", "aggregation.cluster_interfaces",
                 "selection.score_corpus", "selection.select_top_k",
                 "selection.save_report", "templating.build_template",
                 "templating.save_templates", "templating.load_templates",
                 "templating.instantiate", "campaign.analyze_corpus",
                 "campaign.plan_campaign", "planner.plan_targets",
                 "planner.sample_services", "scheduler.greedy_batch",
                 "scheduler.save_run_plan", "scheduler.load_run_plan",
                 "executor.execute_run", "executor.save_report"):
        metrics[f"{name}_s"] = (seconds[name], "s")
    for name in ("model.load_corpus", "sim.endpoint_stats", "sim.entry_metrics",
                 "templating.instantiate", "planner.sample_services",
                 "scheduler.greedy_batch", "executor.execute_run"):
        metrics[f"{name}_calls"] = (calls[name], "count")
    for name in ("sim.traces_recorded", "sim.requests_posted", "sim.systems_started",
                 "sim.arm_fault_calls", "aggregation.interfaces", "planner.cases",
                 "scheduler.runs", "executor.cases"):
        metrics[name] = (counts[name], "count")
    virtual_s = counts["sim.virtual_us"] / 1e6
    startups = calls["executor.execute_run"]
    metrics.update({
        "model.corpus_mb": (counts["model.corpus_bytes"] / 1e6, "MB"),
        "sim.virtual_s": (virtual_s, "s"),
        "sim.virtual_s_per_s": (virtual_s / seconds["sim.run_until"], "s/s"),
        "sim.other_queries_s": (seconds["sim.losses_in"] + seconds["sim.outbox_pending_from"]
                                + seconds["sim.hits_in"], "s"),
        "executor.reschedules": (startups - counts["scheduler.runs"], "count"),
        "executor.cases_per_startup": (counts["executor.cases"] / startups, "case/startup"),
        "executor.report_kb": (counts["executor.report_bytes"] / 1e3, "kB"),
    })
    for module in ("cli", "model", "sim", "aggregation", "selection", "templating",
                   "campaign", "planner", "scheduler", "executor"):
        metrics[f"{module}.self_s"] = (self_s[module], "s")
    return metrics


def main(argv) -> int:
    with open(argv[1], "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    sys.path.insert(0, cfg["src"])
    result = {"setup_s": [], "rounds": [], "dirs": [], "ref_loop_s": [reference_loop()]}
    try:
        (traced if cfg["trace"] else untraced)(cfg, result)
    except StageFailed as exc:
        result["failed_stage"] = {"stage": exc.stage, "code": exc.code, "dir": exc.out}
    except Exception:  # reported by run.py, which prints no result
        result["error"] = traceback.format_exc()
    result["ref_loop_s"].append(reference_loop())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(os.path.join(cfg["work"], "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
