"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own code: the tracer replaces
weakdecay's public functions, for the duration of one traced job, at the
module attributes their callers look up.  ``spin`` and ``decay`` bind
``weak_value`` with ``from .core import``, so the kernel is wrapped in all
three modules that hold a reference to it.

A hook whose target no longer exists (after a refactor) is reported as
absent; its layer then reads zero calls instead of the run crashing.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute path, span name).  Spans of one name that would nest
# directly inside each other (interaction_column -> propagator_column) are
# recorded once, as the outer call.
HOOKS = (
    ("weakdecay.cli", "main", "cli"),
    ("weakdecay.harness", "parse_config_text", "harness.config"),
    ("weakdecay.harness", "build_config", "harness.config"),
    ("weakdecay.harness", "run_scenario", "harness.scenario"),
    ("weakdecay.harness", "convergence_sweep", "harness.sweep"),
    ("weakdecay.harness", "rows_to_csv", "harness.render"),
    ("weakdecay.harness", "summary_to_json", "harness.render"),
    ("weakdecay.harness", "SweepResult.to_csv", "harness.render"),
    ("weakdecay.decay", "weak_survival_numeric", "decay.weak"),
    ("weakdecay.decay", "survival_probability", "decay.survival"),
    ("weakdecay.decay", "weak_survival_single_photon", "decay.closed"),
    ("weakdecay.decay", "weak_survival_asymptotic_post", "decay.closed"),
    ("weakdecay.decay", "propagator_column", "decay.column"),
    ("weakdecay.decay", "interaction_column", "decay.column"),
    ("weakdecay.decay", "propagator_element", "decay.element"),
    ("weakdecay.decay", "interaction_element", "decay.element"),
    ("weakdecay.decay", "bath_propagator", "decay.dense"),
    ("weakdecay.core", "weak_value", "core.weak_value"),
    ("weakdecay.spin", "weak_value", "core.weak_value"),
    ("weakdecay.decay", "weak_value", "core.weak_value"),
    ("weakdecay.spin", "spin_propagator", "spin.propagator"),
    ("weakdecay.spin", "spin_weak_kernel", "spin.kernel"),
    ("weakdecay.spin", "spin_weak_closed", "spin.closed"),
    ("weakdecay.sums", "phased_lorentzian_sum", "sums.lattice"),
    ("weakdecay.sums", "lorentzian_sum", "sums.lattice"),
)

COUNTERS = ("decay.weak.errors", "sums.lattice.terms", "harness.render.bytes",
            "harness.rows", "harness.row_errors")
JOB = "job"
SPAN_NAMES = (JOB, *dict.fromkeys(name for _, _, name in HOOKS))
# Amplitude layers: the first call on a bath the process has not touched
# yet pays for the bath's spectrum (today a dense eigh).
AMPLITUDE = ("decay.column", "decay.element", "decay.dense")


def _resolve(module_name: str, path: str):
    """Return (owner, attribute name) for ``module.path``, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Spans (name, start, end, parent, job) kept in flat arrays until the run ends."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("H")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._job_id = -1
        self.first_touch: set[int] = set()  # span indexes
        self._seen_baths: set = set()
        self._job_counts: dict[int, dict[str, int]] = {}
        self.absent = [f"{m}.{p}" for m, p, _ in HOOKS if _resolve(m, p) is None]

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _count(self, key: str, amount: int) -> None:
        counts = self._job_counts.setdefault(self._job_id, dict.fromkeys(COUNTERS, 0))
        counts[key] += amount

    def _wrap(self, fn, name: str):
        name_id = self._ids[name]
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.name[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == "decay.weak":
                    tracer._count("decay.weak.errors", 1)
                raise
            finally:
                tracer._close(index)
            tracer._after(name, index, args, result)
            return result

        return traced

    def _after(self, name: str, index: int, args, result) -> None:
        if name in AMPLITUDE and args:
            bath = args[0]
            try:
                hash(bath)
            except TypeError:
                bath = id(bath)
            if bath not in self._seen_baths:
                self._seen_baths.add(bath)
                self.first_touch.add(index)
        elif name == "sums.lattice" and args:
            self._count("sums.lattice.terms", int(getattr(args[0], "k_max", 0)))
        elif name == "harness.render" and isinstance(result, str):
            self._count("harness.render.bytes", len(result))
        elif name in ("harness.scenario", "harness.sweep"):
            rows = getattr(result, "rows", ())
            self._count("harness.rows", len(rows))
            summary = getattr(result, "summary", None) or {}
            errors = len(summary.get("row_errors", ()))
            errors += sum(1 for r in rows if getattr(r, "marker", ""))
            self._count("harness.row_errors", errors)

    @contextmanager
    def job_span(self, job_id: int):
        """Install every hook for one job and record the job's root span."""
        installed = []
        for module_name, path, name in HOOKS:
            target = _resolve(module_name, path)
            if target is None:
                continue
            owner, attr = target
            original = getattr(owner, attr)
            installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        self._job_id = job_id
        root = self._open(JOB)
        try:
            yield
        finally:
            self._close(root)
            self._stack.clear()
            self._job_id = -1
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self, job_ids) -> dict[str, float]:
        """Per-job means of every layer's calls, time and self time over ``job_ids``.

        Self time is span time minus the time of its direct children.  The
        first amplitude call on a new bath is split: the median later call
        of the same layer stays in that layer, the excess goes to
        ``decay.first_touch``.
        """
        jobs = sorted(set(job_ids))
        n_jobs = max(len(jobs), 1)
        names = np.asarray(self.name)
        parent = np.asarray(self.parent, dtype=np.int64)
        job = np.asarray(self.job, dtype=np.int64)
        duration = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(duration.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child
        selected = np.isin(job, jobs)

        first = np.zeros(duration.size, dtype=bool)
        first[list(self.first_touch)] = True
        excess = np.zeros(duration.size)
        for name in AMPLITUDE:
            layer = names == self._ids[name]
            later = duration[layer & ~first]
            baseline = float(np.median(later)) if later.size else 0.0
            touched = layer & first
            excess[touched] = np.maximum(duration[touched] - baseline, 0.0)

        metrics: dict[str, float] = {}
        for name in SPAN_NAMES:
            mask = selected & (names == self._ids[name])
            metrics[f"{name}.calls"] = int(mask.sum()) / n_jobs
            metrics[f"{name}.s"] = float((duration[mask] - excess[mask]).sum()) / n_jobs
            metrics[f"{name}.self_s"] = float((self_time[mask] - excess[mask]).sum()) / n_jobs
        touch = selected & first
        metrics["decay.first_touch.calls"] = int(touch.sum()) / n_jobs
        metrics["decay.first_touch.s"] = float(excess[touch].sum()) / n_jobs
        for key in COUNTERS:
            total = sum(self._job_counts.get(j, {}).get(key, 0) for j in jobs)
            metrics[key] = total / n_jobs
        lattice_s = metrics["sums.lattice.s"]
        metrics["sums.lattice.terms_per_s"] = (
            metrics["sums.lattice.terms"] / lattice_s if lattice_s > 0 else 0.0
        )
        metrics["trace.unattributed_s"] = metrics.pop(f"{JOB}.self_s")
        metrics["trace.absent"] = len(self.absent)
        return metrics

    def save(self, path) -> None:
        """Write every span, with the name table, as one compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name=np.asarray(self.name),
            parent=np.asarray(self.parent, dtype=np.int64),
            job=np.asarray(self.job, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            first_touch=np.array(sorted(self.first_touch), dtype=np.int64),
        )
