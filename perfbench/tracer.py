"""Spans and counters around calls into resilitest's public functions.

The tracer is installed from outside the program: it replaces a function in
every resilitest module that bound it (``from .x import f`` makes a binding
per importing module) and a method on its class, and puts the originals back
on ``uninstall``. Each span is ``[name, start, end, parent index]``, kept in
memory and written out once at the end; a span's name is
``<module>.<function>``, so module self time falls out of the parent links.
Calls too frequent to be worth a span (request intake, system construction)
are only counted.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()  # deterministic counters filled by hooks
        self._stack = []
        self._restore = []

    # -- recording ------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self.counts, args, result)
            return result
        return wrapper

    def _counted(self, name, fn, amount=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        replacement = wrapper(original)
        if isinstance(owner, type):
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, original))
            return
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("resilitest"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._restore.append((module, key, original))

    def install(self) -> None:
        # cli imports every module whose bindings are patched below
        from resilitest import (aggregation, campaign, cli, executor, model,  # noqa: F401
                                planner, scheduler, selection, templating)
        from resilitest.sim import engine, topology

        def corpus_bytes(counts, args, _result):
            counts["model.corpus_bytes"] += os.path.getsize(args[1])

        def report_bytes(counts, args, _result):
            counts["executor.report_bytes"] += os.path.getsize(args[1])

        def runs_in_plan(counts, args, _result):
            counts["scheduler.runs"] += len(args[0].runs)

        def add_len(key, of=lambda result: result):
            def hook(counts, _args, result):
                counts[key] += len(of(result))
            return hook

        timed = [
            (model, "save_corpus", "model.save_corpus", corpus_bytes),
            (model, "load_corpus", "model.load_corpus", None),
            (engine, "record_corpus", "sim.record_corpus",
             add_len("sim.traces_recorded", lambda corpus: corpus.traces)),
            (engine.System, "run_until", "sim.run_until", None),
            (engine.System, "endpoint_stats", "sim.endpoint_stats", None),
            (engine.System, "entry_metrics", "sim.entry_metrics", None),
            (engine.System, "losses_in", "sim.losses_in", None),
            (engine.System, "outbox_pending_from", "sim.outbox_pending_from", None),
            (engine.ArmedFault, "hits_in", "sim.hits_in", None),
            (topology, "load_topology", "sim.load_topology", None),
            (aggregation, "cluster_interfaces", "aggregation.cluster_interfaces",
             add_len("aggregation.interfaces")),
            (selection, "score_corpus", "selection.score_corpus", None),
            (selection, "select_top_k", "selection.select_top_k", None),
            (selection, "save_selection_report", "selection.save_report", None),
            (templating, "build_template", "templating.build_template", None),
            (templating, "save_templates", "templating.save_templates", None),
            (templating, "load_templates", "templating.load_templates", None),
            (templating, "instantiate", "templating.instantiate", None),
            (campaign, "analyze_corpus", "campaign.analyze_corpus", None),
            (campaign, "plan_campaign", "campaign.plan_campaign", None),
            (planner, "plan_targets", "planner.plan_targets", add_len("planner.cases")),
            (planner, "sample_services", "planner.sample_services", None),
            (scheduler, "greedy_batch", "scheduler.greedy_batch", None),
            (scheduler, "save_run_plan", "scheduler.save_run_plan", runs_in_plan),
            (scheduler, "load_run_plan", "scheduler.load_run_plan", None),
            (executor, "execute_run", "executor.execute_run",
             add_len("executor.cases", lambda outcome: outcome[0])),
            (executor, "save_report", "executor.save_report", report_bytes),
        ]
        counted = [
            (engine.System, "__init__", "sim.systems_started", None),
            (engine.System, "post_request", "sim.requests_posted", None),
            (engine.System, "arm_fault", "sim.arm_fault_calls", None),
            # virtual time each replay window covers: its duration argument
            (engine, "replay_traffic", "sim.virtual_us",
             lambda args, kwargs: args[4] if len(args) > 4 else kwargs["duration_us"]),
        ]
        for owner, attr, name, after in timed:
            self._patch(owner, attr, lambda fn, n=name, a=after: self._timed(n, fn, a))
        for owner, attr, name, amount in counted:
            self._patch(owner, attr, lambda fn, n=name, a=amount: self._counted(n, fn, a))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- results --------------------------------------------------------------

    def totals(self) -> tuple:
        """(seconds by span name, calls by span name, self seconds by module)."""
        seconds = Counter()
        calls = Counter()
        self_s = Counter()
        for name, start, end, parent in self.spans:
            seconds[name] += end - start
            calls[name] += 1
            self_s[name.split(".", 1)[0]] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0].split(".", 1)[0]] -= end - start
        return seconds, calls, self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}))
                fh.write("\n")
