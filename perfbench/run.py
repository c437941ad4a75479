"""Campaign benchmark for resilitest.

    python3 perfbench/run.py --workload seeded-all --seed 1 --seconds 30 --trace 0

Runs one workload's campaign (simulate-record, analyze, plan, run, report
through ``resilitest.cli.main``) in a worker process, checks every artifact
against the topology file's ground truth, and prints the metrics. The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count planned test cases; ``metrics`` holds the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``. Spans of a
traced run are written to ``.perfbench_out/spans-<workload>.jsonl``.

The campaign's inputs are fixed at the project's reference seed, whatever
``--seed`` says, so that every run of a workload at one commit writes the
same artifacts, byte for byte; see README.md for why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

from checks import (ARTIFACTS, SETUP_ARTIFACTS, Truth, check_campaign, check_setup,
                    read_report, read_run_plan, sha256)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ASSETS = os.path.join(SRC, "resilitest", "assets")
OUT = os.path.join(ROOT, ".perfbench_out")

PROGRAM_SEED = 7
PHASES = "12,12,12,5"
N_SERVICES = 3
WORKER_TIMEOUT_S = 160

# per_interface 5 is the shipped reference workload (1,020 requests); more
# instances are generated with build_reference_workload. Set-up runs
# `setups` times before and after the campaigns, because the host's slow
# phases outlast one set-up.
WORKLOADS = {
    "seeded-all": {"topology": "reference_topology.json", "per_interface": 5,
                   "top_k": "all", "setups": 3},
    "corpus-scale": {"topology": "reference_topology.json", "per_interface": 100,
                     "top_k": "20", "setups": 1},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PROGRAM_SEED,
                        help="recorded only; the campaign uses the reference seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="campaign time to measure; whole campaigns, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare(name: str, work: str, trace: bool, seconds: float) -> dict:
    """The worker's config; writes the generated workload file if one is needed."""
    spec = WORKLOADS[name]
    cfg = {
        **spec,
        "src": SRC, "work": work, "trace": trace, "seconds": seconds,
        "seed": PROGRAM_SEED, "phases": PHASES, "n_services": N_SERVICES,
        "topology": os.path.join(ASSETS, spec["topology"]),
        "registry": os.path.join(ASSETS, "reference_registry.txt"),
        "workload": os.path.join(ASSETS, "reference_workload.jsonl"),
        "spans": os.path.join(OUT, f"spans-{name}.jsonl"),
    }
    if spec["per_interface"] != 5:
        from resilitest.refassets import build_reference_workload
        from resilitest.sim.topology import load_topology
        from resilitest.sim.workload import save_workload

        cfg["workload"] = os.path.join(work, "workload.jsonl")
        save_workload(build_reference_workload(load_topology(cfg["topology"]),
                                               per_interface=spec["per_interface"]),
                      cfg["workload"])
    return cfg


def run_worker(cfg: dict) -> dict:
    path = os.path.join(cfg["work"], "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    with open(os.path.join(cfg["work"], "worker.log"), "w", encoding="utf-8") as log:
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), path],
                       stdout=log, stderr=subprocess.STDOUT, check=True,
                       timeout=WORKER_TIMEOUT_S)
    with open(os.path.join(cfg["work"], "result.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def verify(cfg: dict, result: dict) -> tuple:
    """(attempted, failed, problems, digests of the last campaign's artifacts,
    seeded-bug units planned and failing in it)."""
    truth = Truth(cfg["topology"])
    problems = []
    attempted = failed = 0
    bug_units = (0, 0)
    failure = result.get("failed_stage")
    if failure:
        problems.append(f"stage {failure['stage']} exited {failure['code']}")
        plan = os.path.join(failure["dir"], "plans", "runplan.txt")
        if os.path.exists(plan):
            attempted = len(read_run_plan(plan)[1])
        attempted = max(attempted, 1)
        failed = attempted
    for round_ in result["rounds"]:
        a, f, p, *bug_units = check_campaign(round_["dir"], truth)
        attempted += a
        failed += f
        problems += p
    digests = {}
    if result["rounds"]:
        last = result["rounds"][-1]["dir"]
        problems += check_setup(last, truth, cfg)
        digests = {name: sha256(os.path.join(last, name)) for name in ARTIFACTS}
        for out in result["dirs"]:
            names = ARTIFACTS if os.path.exists(os.path.join(out, "report.jsonl")) \
                else SETUP_ARTIFACTS
            for name in names:
                if sha256(os.path.join(out, name)) != digests[name]:
                    problems.append(f"{name} in {os.path.basename(out)} differs "
                                    f"from the last campaign's")
    return attempted, failed, problems, digests, bug_units


def end_to_end(result: dict) -> dict:
    rounds = result["rounds"]
    rates = [len(read_report(os.path.join(r["dir"], "report.jsonl"))[0]) / r["stages"]["run"]
             for r in rounds]
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "cases_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "resilitest", "cli.py")):
        print(f"error: no resilitest sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        cfg = prepare(args.workload, work, bool(args.trace), args.seconds)
        try:
            result = run_worker(cfg)
        except subprocess.SubprocessError as exc:
            result = {"error": f"worker: {exc}"}
        if "error" in result or "failed_stage" in result:
            with open(os.path.join(work, "worker.log"), "r", encoding="utf-8") as fh:
                sys.stderr.write(fh.read()[-4000:])
        if "error" in result:
            print(result["error"], file=sys.stderr)
            return 1
        attempted, failed, problems, digests, bug_units = verify(cfg, result)
        if args.trace:
            metrics = result.get("layers", {})
        else:
            metrics = end_to_end(result) if result["rounds"] else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}: seed {PROGRAM_SEED} (--seed {args.seed} recorded), "
          f"{cfg['per_interface']} instances per interface, top-k {cfg['top_k']}, "
          f"phases {PHASES}, topology {cfg['topology'].rsplit(os.sep, 1)[-1]}")
    print(f"host: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"reference loop s {' '.join(f'{t:.4f}' for t in result['ref_loop_s'])}")
    print(f"set-up s: {' '.join(f'{t:.4f}' for t in result['setup_s'])}")
    for round_ in result["rounds"]:
        stages = " ".join(f"{k} {v:.4f}" for k, v in round_["stages"].items())
        label = "traced campaign" if round_["traced"] else "campaign"
        print(f"{label} s: {stages}; wall {round_['wall_s']:.4f}")
    for name, digest in digests.items():
        print(f"sha256 {name} {digest}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"cases: {attempted} attempted, {failed} failed; seeded-bug units: "
          f"{bug_units[0]} planned, {bug_units[1]} with a FAIL verdict; checks "
          f"{'passed' if not problems else 'FAILED'}")

    if args.trace:
        print(f"spans: {cfg['spans']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
