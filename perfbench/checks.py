"""Checks of a campaign's artifacts against ground truth from the topology file.

The verdict ground truth is the ``bug`` flags in the topology JSON, read here
without the program's topology model or oracle. An operation is one planned
test case; it fails when the report has no verdict for it, when it is a
``STARTUP_FAILURE``, or when it is a ``FAIL_*`` on a (service, endpoint) unit
that carries no bug flag. On the bug-free topology no unit carries one, so
there every verdict must be ``PASS``. Everything else found wrong is a
problem, which makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter

FAIL_VERDICTS = ("FAIL_NO_RECOVERY", "FAIL_SILENT", "FAIL_NO_IMPACT")
VERDICTS = ("PASS",) + FAIL_VERDICTS + ("STARTUP_FAILURE",)
_OP_COMPONENT = {"db": "Database", "cache": "Cache", "mq": "MQ"}
SETUP_ARTIFACTS = ("corpus.txt", "analysis/clusters.txt", "analysis/selection.jsonl",
                   "analysis/templates.jsonl", "plans/plan.txt", "plans/runplan.txt")
ARTIFACTS = SETUP_ARTIFACTS + ("report.jsonl",)


class Truth:
    """(service, endpoint triple) units and interface templates of a topology file."""

    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            topology = json.load(fh)
        self.used = set()
        self.bugs = set()
        self.templates = []
        for service in topology["services"]:
            for iface in service["interfaces"]:
                tokens = ["<*>" if t.startswith("{") else t
                          for t in iface["uri"].split("/")[1:]]
                self.templates.append(f"{iface['method']} /" + "/".join(tokens))
                for step in iface["workflow"]:
                    component = _OP_COMPONENT.get(step["op"], step.get("component"))
                    unit = (service["name"],
                            f"{component}:{step['framework']}:{step['method']}")
                    self.used.add(unit)
                    if step.get("bug"):
                        self.bugs.add(unit)


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_run_plan(path) -> tuple:
    """(run count, [(case_id, service, endpoint triple)]) from a run-plan file."""
    runs = 0
    cases = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "run":
                runs += 1
            else:
                cases.append((parts[0], parts[4], parts[3]))
    return runs, cases


def read_report(path) -> tuple:
    records = []
    summaries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                (summaries if rec.get("type") == "summary" else records).append(rec)
    return records, summaries


def check_campaign(out: str, truth: Truth) -> tuple:
    """(attempted, failed, problems, seeded-bug units planned, of them failing)
    for the campaign whose artifacts are in ``out``."""
    runs, cases = read_run_plan(os.path.join(out, "plans", "runplan.txt"))
    records, summaries = read_report(os.path.join(out, "report.jsonl"))
    problems = []
    planned_ids = [case_id for case_id, _service, _endpoint in cases]
    if len(set(planned_ids)) != len(planned_ids):
        problems.append("run plan repeats a case ID")
    for case_id, service, endpoint in cases:
        if (service, endpoint) not in truth.used:
            problems.append(f"case {case_id}: {service} never uses {endpoint}")

    by_id = {}
    for rec in records:
        if rec["case_id"] in by_id:
            problems.append(f"case {rec['case_id']} has two verdict records")
        by_id[rec["case_id"]] = rec
    extra = set(by_id) - set(planned_ids)
    if extra:
        problems.append(f"{len(extra)} verdict records for cases not in the run plan")

    failed = 0
    failing_units = set()
    for case_id in planned_ids:
        rec = by_id.get(case_id)
        if rec is None or rec["verdict"] == "STARTUP_FAILURE":
            failed += 1
            continue
        unit = (rec["service"], rec["endpoint"])
        if rec["verdict"] in FAIL_VERDICTS:
            failing_units.add(unit)
            if unit not in truth.bugs:
                failed += 1
    planned_bugs = {(service, endpoint) for _id, service, endpoint in cases} & truth.bugs
    for unit in sorted(planned_bugs - failing_units):
        problems.append(f"seeded bug {unit[0]} {unit[1]} is planned but never fails")
    outcome = (len(planned_ids), failed, problems, len(planned_bugs),
               len(planned_bugs & failing_units))

    if len(summaries) != 1:
        problems.append(f"report has {len(summaries)} summary records")
        return outcome
    summary = summaries[0]
    counts = Counter(rec["verdict"] for rec in records)
    expected = {
        "cases": len(records),
        "verdicts": {v: counts.get(v, 0) for v in VERDICTS},
        "endpoint_coverage": len({(rec["endpoint"], rec["service"]) for rec in records}),
        "initial_runs": runs,
        "startup_count": summary["initial_runs"] + summary["reschedules"],
    }
    for key, value in expected.items():
        if summary[key] != value:
            problems.append(f"summary {key} is {summary[key]}, records give {value}")
    return outcome


def check_setup(out: str, truth: Truth, cfg: dict) -> list:
    """Problems in the corpus, clusters and templates written in ``out``."""
    from resilitest.campaign import Analysis, replay_check
    from resilitest.model import load_corpus
    from resilitest.sim.topology import load_topology
    from resilitest.templating import load_templates

    problems = []
    with open(cfg["workload"], "r", encoding="utf-8") as fh:
        requests = sum(1 for line in fh if line.strip())
    corpus = load_corpus(os.path.join(out, "corpus.txt"))
    healthy = sum(1 for trace in corpus.traces if trace.root_span().status == "ok")
    if len(corpus.traces) != requests or healthy != requests:
        problems.append(f"{requests} requests recorded as {len(corpus.traces)} traces, "
                        f"{healthy} healthy")

    clusters = Counter()
    with open(os.path.join(out, "analysis", "clusters.txt"), "r", encoding="utf-8") as fh:
        for line in fh:
            _interface_id, rest = line.rstrip("\n").split(" ", 1)
            template, count = rest.rsplit(" ", 1)
            clusters[(template, int(count))] += 1
    expected = Counter((template, cfg["per_interface"]) for template in truth.templates)
    if clusters != expected:
        problems.append(f"clusters.txt differs from the topology's interfaces in "
                        f"{sum(((clusters - expected) + (expected - clusters)).values())} lines")

    templates = load_templates(os.path.join(out, "analysis", "templates.jsonl"))
    analysis = Analysis(corpus=corpus, clusters=[], scores={}, ranked=[],
                        templates={t.interface_id: t for t in templates})
    fraction = replay_check(load_topology(cfg["topology"]), analysis,
                            seed=cfg["seed"]).success_fraction
    if fraction != 1.0:
        problems.append(f"replay check with the registry is {fraction}, not 1.0")
    return problems
