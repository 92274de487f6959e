"""Spans around the program's layer calls, kept in memory for the traced run.

The traced op runs ``superpulse.cli.main`` exactly like the untraced op,
with each layer function replaced, where its caller looks it up, by a
wrapper that records a span around the call.  So both ops run one program;
the run also checks that their outputs are equal.  Spans inside a layer
(say, RK stepping against dense fill inside ``rk.solve``) need spans in the
program itself and are not recorded here.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT_SPAN = "cli.main"

# (module whose global the caller uses, attribute, span "<module>.<function>")
LAYER_CALLS = (
    ("superpulse.cli", "run_preset", "runner.run_preset"),
    ("superpulse.cli", "run_config", "runner.run_config"),
    ("superpulse.cli", "_run_oracle", "cli._run_oracle"),
    ("superpulse.cli", "evolve_ladder", "ladder.evolve_ladder"),
    ("superpulse.runner", "load_config", "runner.load_config"),
    ("superpulse.runner", "execute", "runner.execute"),
    ("superpulse.runner", "integrate_strong", "strong.integrate_strong"),
    ("superpulse.runner", "sample_weak_solution", "weak.sample_weak_solution"),
    ("superpulse.runner", "emission_arrays", "observables.emission_arrays"),
    ("superpulse.runner", "compute_metrics", "pulses.compute_metrics"),
    ("superpulse.runner", "write_trajectory_csv", "runner.write_trajectory_csv"),
)
SPAN_NAMES = (ROOT_SPAN,) + tuple(name for _, _, name in LAYER_CALLS)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index into Tracer.spans
    op: int
    counts: dict = field(default_factory=dict)


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts read off a layer call's arguments and result."""
    if name == "strong.integrate_strong":
        return {"steps": result.stats.n_steps, "rejects": result.stats.n_rejected,
                "samples": len(result)}
    if name == "weak.sample_weak_solution":
        return {"samples": len(result)}
    if name == "pulses.compute_metrics":
        return {"pulses": result.pulse_count_half_height}
    if name == "runner.write_trajectory_csv":
        return {"bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pulse_metrics: dict[int, list] = {}   # op -> PulseMetrics returned
        self.missing: list[str] = []                # layer calls not found
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.spans[idx].counts = _counts(name, args, result)
            if name == "pulses.compute_metrics":
                self.pulse_metrics[self._op].append(result)
            return result

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: wrap the layer calls and open its root span."""
        self._op = op_id
        self.pulse_metrics[op_id] = []
        saved = []
        try:
            for module_name, attr, name in LAYER_CALLS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    # a renamed layer call: its time shows in unattributed_s
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))
            root = self._open(ROOT_SPAN)
            try:
                yield
            finally:
                self._close(root)
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def op_spans(self, op_id: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.op == op_id]

    def self_times(self, op_id: int) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        spans = self.op_spans(op_id)
        own = {i: s.end - s.start for i, s in spans}
        for i, s in spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, s in spans:
            totals[s.name] += own[i]
        return totals

    def dump(self) -> list:
        """All spans as [name, start, end, parent, op] rows, starts from 0."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [[s.name, s.start - t0, s.end - t0, s.parent, s.op] for s in self.spans]


def layer_metrics(tracer: Tracer, op_id: int) -> dict[str, float]:
    """The per-layer metrics of one traced op."""
    spans = [s for _, s in tracer.op_spans(op_id)]

    def total(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    integrate_s = total("strong.integrate_strong")
    steps = count("strong.integrate_strong", "steps")
    rejects = count("strong.integrate_strong", "rejects")
    strong_samples = count("strong.integrate_strong", "samples")
    csv_s = total("runner.write_trajectory_csv")
    csv_mb = count("runner.write_trajectory_csv", "bytes") / 1e6
    selfs = tracer.self_times(op_id)
    m = {
        "strong.integrate_s": integrate_s,
        "rk.steps": steps,
        "rk.rejects": rejects,
        "rk.accept_ratio": steps / (steps + rejects) if steps else 0.0,
        "strong.us_per_step": 1e6 * integrate_s / steps if steps else 0.0,
        "strong.ns_per_sample": 1e9 * integrate_s / strong_samples if strong_samples else 0.0,
        "bloch.samples": strong_samples + count("weak.sample_weak_solution", "samples"),
        "pulses.metrics_s": total("pulses.compute_metrics"),
        "pulses.found": count("pulses.compute_metrics", "pulses"),
        "observables.emission_s": total("observables.emission_arrays"),
        "runner.csv_s": csv_s,
        "runner.csv_mb": csv_mb,
        "runner.csv_mb_per_s": csv_mb / csv_s if csv_s else 0.0,
        "runner.config_s": total("runner.load_config"),
        "weak.sample_s": total("weak.sample_weak_solution"),
        "runner.runs": sum(1 for s in spans if s.name == "runner.execute"),
        "ladder.evolve_s": total("ladder.evolve_ladder"),
        "traced_op_s": total(ROOT_SPAN),
        "unattributed_s": selfs[ROOT_SPAN],
    }
    for name in SPAN_NAMES[1:]:
        m[f"self_s.{name}"] = selfs[name]
    return m


def median_op(per_op: list[dict[str, float]]) -> dict[str, float]:
    """The metrics of the traced op with the median (low) op time, so its self
    times still sum to its op time."""
    ranked = sorted(per_op, key=lambda m: m["traced_op_s"])
    return ranked[(len(ranked) - 1) // 2]
