"""Command-line entry point wiring the pipeline into reproducible campaigns.

One subcommand per phase so intermediate artifacts are inspectable files:

    resilitest simulate-record --topology t.json --workload w.jsonl --seed 7 --out corpus.txt
    resilitest analyze --corpus corpus.txt --out-dir analysis/
    resilitest plan --corpus corpus.txt --analysis analysis/ --catalog faults.txt --top-k 20 --out-dir plans/
    resilitest run --run-plan plans/runplan.txt --topology t.json --templates analysis/templates.jsonl --out report.jsonl
    resilitest report report.jsonl [more.jsonl ...]

All randomness flows from --seed; identical inputs and seed give
byte-identical outputs. Test FAIL verdicts are data: the exit code stays 0
unless --fail-on-vulnerability is set.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from . import __version__
from .aggregation import save_cluster_report
from .campaign import analyze_corpus, plan_campaign, resolve_k
from .executor import (FAIL_VERDICTS, ExecutorError, OracleCriteria, PhaseConfig,
                       check_run_plan, load_report, run_batch, save_report)
from .faults import default_catalog, load_catalog
from .model import (CorpusMeta, RequestLineError, dumps_canonical, load_corpus_summaries,
                    load_indexed_traces, read_lines, save_corpus, save_corpus_index)
from .planner import PlanConfig, save_plan
from .scheduler import History, greedy_batch, load_run_plan, save_run_plan
from .selection import (ComplexityWeights, SelectionError, load_selection_report,
                        save_selection_report)
from .sim.engine import RejectedEntry, record_traces
from .sim.topology import load_topology
from .sim.workload import load_workload
from .templating import (ManualVariableRegistry, check_entry_payload, load_templates,
                         save_templates)

SECOND_US = 1_000_000
CORPUS_INDEX = "corpus-index.jsonl"  # in the analysis directory


def _parse_weights(text: str) -> ComplexityWeights:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("weights must be w_len,w_div,w_dur")
    try:
        return ComplexityWeights(*parts)
    except SelectionError as exc:  # parse_args runs before main's error handling
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_top_k(text: str):
    if text == "all":
        return "all"
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("--top-k must be >= 1 or 'all'")
    return value


def _parse_n_services(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"--n-services must be >= 1, got {value}")
    return value


def _parse_phases(text: str) -> PhaseConfig:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "phases must be startup_s,inject_s,recover_s,rate")
    try:
        return PhaseConfig(parts[0] * SECOND_US, parts[1] * SECOND_US,
                           parts[2] * SECOND_US, parts[3])
    except ExecutorError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_catalog(path):
    return load_catalog(path) if path else default_catalog()


def _load_history(path) -> History:
    if path and os.path.exists(path):
        return History.load(path)
    return History()


def cmd_simulate_record(args) -> int:
    topology = load_topology(args.topology)
    workload = load_workload(args.workload)
    try:
        count = save_corpus(record_traces(topology, workload, seed=args.seed), args.out,
                            CorpusMeta(args.seed, topology.digest()))
    except RejectedEntry as exc:  # entry i is the i-th non-blank line
        where, _line = next(itertools.islice(read_lines(args.workload, "workload"),
                                             exc.index, None))
        raise ValueError(f"{where}: {exc.reason} in topology {args.topology}") from None
    print(f"recorded {count} traces -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    corpus, reader = load_corpus_summaries(args.corpus)
    registry = ManualVariableRegistry.load(args.registry) if args.registry else None
    try:
        analysis = analyze_corpus(corpus, weights=args.weights, registry=registry)
    except RequestLineError as exc:
        raise ValueError(f"corpus {args.corpus}: {exc}") from None
    ordered = [analysis.templates[c.interface_id] for c in analysis.clusters]
    for template in ordered:  # what `run` reads back must pass its checks
        try:
            check_entry_payload(template.request.payload)
        except ValueError as exc:
            raise ValueError(f"corpus {args.corpus}: trace {template.trace_id}: {exc}") from None
    os.makedirs(args.out_dir, exist_ok=True)
    save_cluster_report(analysis.clusters, os.path.join(args.out_dir, "clusters.txt"))
    save_selection_report(analysis.ranked, corpus,
                          os.path.join(args.out_dir, "selection.jsonl"))
    save_templates(ordered, os.path.join(args.out_dir, "templates.jsonl"))
    save_corpus_index(corpus, reader, [s.trace_id for s in analysis.ranked],
                      os.path.join(args.out_dir, CORPUS_INDEX))
    print(f"{len(analysis.clusters)} interfaces -> {args.out_dir}")
    return 0


def cmd_plan(args) -> int:
    selection = os.path.join(args.analysis, "selection.jsonl")
    ranked = load_selection_report(selection)
    corpus = load_indexed_traces(args.corpus, os.path.join(args.analysis, CORPUS_INDEX),
                                 [s.trace_id for s in ranked], f"selection {selection}")
    catalog = _load_catalog(args.catalog)
    history = _load_history(args.history)
    plan_config = PlanConfig(n_services=args.n_services, seed=args.seed)
    selected, cases = plan_campaign(ranked, corpus, catalog, args.top_k,
                                    plan_config, history=history)
    os.makedirs(args.out_dir, exist_ok=True)
    save_plan(cases, os.path.join(args.out_dir, "plan.txt"))
    save_run_plan(greedy_batch(cases), os.path.join(args.out_dir, "runplan.txt"))
    k = resolve_k(args.top_k, len(ranked))
    print(f"selected {len(selected)}/{k} interfaces, {len(cases)} cases -> {args.out_dir}")
    return 0


def cmd_run(args) -> int:
    topology = load_topology(args.topology)
    plan = load_run_plan(args.run_plan)
    templates = load_templates(args.templates)
    catalog = _load_catalog(args.catalog)
    check_run_plan(plan, topology, templates, catalog, f"run-plan {args.run_plan}",
                   f"templates {args.templates}")
    for what, path in (("report", args.out), ("history", args.history)):
        folder = path and (os.path.dirname(path) or ".")  # written once every case ran
        if folder and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ValueError(f"{what} {path}: {folder} is not a writable directory")
    criteria = OracleCriteria.load(args.criteria) if args.criteria else OracleCriteria()
    history = _load_history(args.history)
    if args.reset_history:
        history.reset()
    result = run_batch(plan, topology, templates, catalog, args.phases, criteria,
                       seed=args.seed, entry_only=args.entry_only_oracle,
                       history=history)
    config = {
        "seed": args.seed,
        "entry_only_oracle": args.entry_only_oracle,
        "phases": [args.phases.startup_us, args.phases.inject_us,
                   args.phases.recover_us, args.phases.rate_per_sec],
    }
    if args.top_k is not None:
        config["top_k"] = str(args.top_k)
    save_report(result, args.out, config=config)
    if args.history:
        history.save(args.history)
    counts = result.verdict_counts()
    print(f"{len(result.test_runs)} cases, startups={result.startup_count} "
          f"verdicts={dumps_canonical(counts)} -> {args.out}")
    if args.fail_on_vulnerability and any(counts[v] for v in FAIL_VERDICTS):
        return 1
    return 0


def _summarize(path) -> dict:
    test_runs, summary = load_report(path)
    return {"path": path, "summary": summary, "runs": test_runs}


def cmd_report(args) -> int:
    loaded = [_summarize(p) for p in args.reports]
    if len(loaded) == 1:
        entry = loaded[0]
        summary = entry["summary"]
        print(f"report {entry['path']}")
        print(f"  cases:             {summary['cases']}")
        for verdict, count in sorted(summary["verdicts"].items()):
            print(f"  {verdict:<18} {count}")
        print(f"  endpoint coverage: {summary['endpoint_coverage']}")
        print(f"  startups:          {summary['startup_count']} "
              f"({summary['reschedules']} reschedules)")
        for rec in entry["runs"]:
            if rec["verdict"] in FAIL_VERDICTS:
                print(f"  {rec['verdict']}: {rec['service']} {rec['endpoint']} "
                      f"fault={rec['fault_id']} case={rec['case_id']}")
        return 0

    # sensitivity table across top-K campaigns
    def sort_key(entry):
        k = entry["summary"].get("config", {}).get("top_k", "all")
        return (1, 0) if k == "all" else (0, int(k))

    loaded.sort(key=sort_key)
    print(f"{'top-K':>8} {'cases':>8} {'coverage':>9} {'startups':>9} "
          f"{'fails':>6}  report")
    for entry in loaded:
        summary = entry["summary"]
        k = summary.get("config", {}).get("top_k", "?")
        fails = sum(summary["verdicts"].get(v, 0) for v in FAIL_VERDICTS)
        print(f"{k:>8} {summary['cases']:>8} {summary['endpoint_coverage']:>9} "
              f"{summary['startup_count']:>9} {fails:>6}  {entry['path']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resilitest",
        description="Resilience-testing campaigns against the deterministic "
                    "microservice simulator.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-record", help="record a corpus from a healthy run")
    p.add_argument("--topology", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate_record)

    p = sub.add_parser("analyze", help="cluster interfaces, score, build templates")
    p.add_argument("--corpus", required=True)
    p.add_argument("--weights", type=_parse_weights, default=ComplexityWeights())
    p.add_argument("--registry", help="manual variable registry file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("plan", help="select top-K interfaces and plan fault injections")
    p.add_argument("--corpus", required=True)
    p.add_argument("--analysis", required=True,
                   help="directory written by `analyze` (ranking is read from it)")
    p.add_argument("--catalog", help="fault catalog file (default: built-in)")
    p.add_argument("--top-k", type=_parse_top_k, default="all")
    p.add_argument("--n-services", type=_parse_n_services, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--history", help="skip cases that passed in the current epoch")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("run", help="execute a run plan and verdict each case")
    p.add_argument("--run-plan", required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--templates", required=True)
    p.add_argument("--catalog")
    p.add_argument("--criteria", help="oracle criteria JSON")
    p.add_argument("--history")
    p.add_argument("--reset-history", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phases", type=_parse_phases,
                   default=PhaseConfig(), metavar="STARTUP_S,INJECT_S,RECOVER_S,RATE")
    p.add_argument("--entry-only-oracle", action="store_true",
                   help="disable granular assertion points (naive oracle)")
    p.add_argument("--fail-on-vulnerability", action="store_true")
    p.add_argument("--top-k", type=_parse_top_k, default=None,
                   help="recorded in the report config for sensitivity tables")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("report", help="summarize one report or tabulate several")
    p.add_argument("reports", nargs="+")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed output pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped reading (`| head`): a normal end of output; the
        # unwritten rest goes to devnull so the exit-time flush fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as exc:  # every domain error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
