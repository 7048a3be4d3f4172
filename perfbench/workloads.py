"""The benchmark's workloads: seeded CLI jobs, their smoke sizes and output checks.

A job is one call of ``weakdecay.cli.main`` with a subcommand and ``--set``
values that the README documents.  Inputs come only from the workload seed,
so the same seed gives the same jobs.  Each workload also checks a job's CSV
against closed forms computed here, independently of the program's own
comparator; README.md in this directory records why each workload exists.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# The scenario CSV header the README freezes (``weakdecay.harness.CSV_HEADER``).
SCENARIO_HEADER = "t,value_re,value_im,reference_re,reference_im,abs_error"
# ``weakdecay sweep`` writes a per-level table under this header.
SWEEP_HEADER = "n_half,max_abs_error,seconds,marker"
SPIN_POSTS = ("xplus", "xminus", "yplus")
SWEEP_LEVELS = (250, 500, 1000, 2000)
SMOKE_SWEEP_LEVELS = (50, 100)


@dataclass(frozen=True)
class Job:
    command: str
    sets: dict[str, str]

    def argv(self, out_path: str) -> list[str]:
        args = [self.command]
        for key, value in self.sets.items():
            args += ["--set", f"{key}={value}"]
        return args + ["--out", out_path]


def _num(x: float) -> str:
    return f"{x:.9f}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (rng, job index, smoke) -> the job
    draw: Callable[[random.Random, int, bool], Job]
    #: (job, csv text) -> (problems, max_abs_error)
    verify: Callable[[Job, str], tuple[list[str], float]]
    #: rows a job produces; sweep rows are levels x grid points
    rows: Callable[[Job], int]
    #: extra ``--set`` values of one untimed warm-up job that fills the
    #: program's caches before timing; None for no warm-up
    warmup: Optional[dict[str, str]] = None
    #: most timed jobs in an untraced run; None for as many as fit
    max_jobs: Optional[int] = None

    def jobs(self, seed: int, smoke: bool):
        """Endless job stream for ``seed``; the warm-up job, if any, comes first."""
        rng = random.Random(f"{self.name}:{seed}")
        if self.warmup is not None:
            job = self.draw(rng, 0, smoke)
            yield Job(job.command, {**job.sets, **self.warmup})
        index = 0
        while True:
            yield self.draw(rng, index, smoke)
            index += 1


# -- independent closed forms ----------------------------------------------


def _spin_closed(post: str, t_f: float, t: np.ndarray) -> np.ndarray:
    """+x projector weak value, pre-selected along +x, omega = 1, t_i = 0."""
    a, b, h = 0.5 * t, 0.5 * (t_f - t), 0.5 * t_f
    if post == "xplus":
        return np.cos(a) * np.cos(b) / math.cos(h)
    if post == "xminus":
        return 0.5 - np.sin(a - b) / (2.0 * math.sin(h))
    return np.cos(a) * (np.cos(b) - np.sin(b)) / (math.cos(h) - math.sin(h))


def _emission_closed(gamma: float, t_f: float, t: np.ndarray) -> np.ndarray:
    """Weak survival value post-selected on the full emission state, t_i = 0."""
    return np.exp(-gamma * t) * (1.0 - np.exp(-2.0 * gamma * (t_f - t))) / (
        1.0 - math.exp(-2.0 * gamma * t_f)
    )


def _scenario_check(job: Job, text: str, reference, tolerance: float):
    """Header, row count, finite values and |value - reference| <= tolerance."""
    header, _, body = text.partition("\n")
    if header != SCENARIO_HEADER:
        return [f"CSV header {header!r} differs from {SCENARIO_HEADER!r}"], math.nan
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        return [f"unparseable CSV rows: {exc}"], math.nan
    expected_rows = int(job.sets.get("n_points", "101"))
    if table.shape != (expected_rows, 6):
        return [f"CSV table shape {table.shape}, expected ({expected_rows}, 6)"], math.nan
    t = table[:, 0]
    value = table[:, 1] + 1j * table[:, 2]
    error = np.abs(value - reference(t))
    worst = float(np.max(error))
    if not np.all(np.isfinite(value)) or not worst <= tolerance:
        return [f"max |value - closed form| {worst!r} exceeds {tolerance!r}"], worst
    return [], worst


# -- workloads ---------------------------------------------------------------


def _sweep_draw(rng, index, smoke):
    sets = {"delta_e": "0.1", "t_end": "4", "t_f": "4", "gamma": _num(rng.uniform(0.9, 1.1))}
    levels = SMOKE_SWEEP_LEVELS if smoke else SWEEP_LEVELS
    sets["levels"] = ",".join(map(str, levels))
    if smoke:
        # Small baths sit far above the 0.01 finite-bath error; the smoke
        # size checks code paths, not convergence.
        sets.update(delta_e="0.2", tolerance="0.25")
    return Job("sweep", sets)


def _sweep_verify(job, text):
    header, _, body = text.partition("\n")
    if header != SWEEP_HEADER:
        return [f"sweep CSV header {header!r} differs from {SWEEP_HEADER!r}"], math.nan
    rows = [line.split(",") for line in body.splitlines()]
    levels = [int(x) for x in job.sets["levels"].split(",")]
    tolerance = float(job.sets.get("tolerance", "0.01"))
    problems = []
    if [int(r[0]) for r in rows] != levels:
        return [f"sweep levels {[r[0] for r in rows]} differ from {levels}"], math.nan
    if any(r[3] for r in rows):
        problems.append(f"sweep markers {[r[3] for r in rows]}")
    try:
        errors = [float(r[1]) for r in rows]
    except ValueError:
        return problems + ["sweep level without an error"], math.nan
    if not errors[-1] <= tolerance:
        problems.append(f"finest-level error {errors[-1]!r} exceeds {tolerance!r}")
    if not errors[-1] < errors[0]:
        problems.append(f"sweep error not decreasing: {errors}")
    return problems, errors[-1]


def _emission_draw(rng, index, smoke):
    sets = {"post": "asymptotic", "t_f": _num(rng.uniform(1.5, 3.0))}
    if smoke:
        sets.update(n_half="200", delta_e="0.1", n_points="11", tolerance="0.1")
    return Job("decay", sets)


def _emission_verify(job, text):
    t_f = float(job.sets["t_f"])
    tolerance = float(job.sets.get("tolerance", "0.01"))
    return _scenario_check(job, text, lambda t: _emission_closed(1.0, t_f, t), tolerance)


def _spin_draw(rng, index, smoke):
    # t_f in [0.6, 1.3] keeps the half-window h = t_f / 2 inside (0.3, 0.65):
    # every closed-form denominator (cos h, sin h, cos h - sin h) stays
    # above 0.1, well off the 1e-2 floor of checks._random_spin_draw.
    sets = {
        "n_points": "101" if smoke else "10001",
        "post": SPIN_POSTS[index % len(SPIN_POSTS)],
        "t_f": _num(rng.uniform(0.6, 1.3)),
    }
    return Job("spin", sets)


def _spin_verify(job, text):
    t_f = float(job.sets["t_f"])
    post = job.sets["post"]
    return _scenario_check(job, text, lambda t: _spin_closed(post, t_f, t), 1e-10)


def _sums_draw(rng, index, smoke):
    sets = {"gamma": _num(rng.uniform(0.8, 1.2))}
    if smoke:
        sets.update(k_max="10000", n_points="11")
    return Job("sums", sets)


def _sums_verify(job, text):
    gamma = float(job.sets["gamma"])
    tolerance = 0.005 * math.pi / gamma
    return _scenario_check(
        job, text, lambda t: math.pi / gamma * np.exp(-gamma * t), tolerance
    )


def _grid_rows(job: Job) -> int:
    return int(job.sets.get("n_points", "101"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_cold",
            "sweep at the README config with a fresh gamma per job: the bath spectrum solve "
            "does almost all the work",
            _sweep_draw,
            _sweep_verify,
            lambda job: len(job.sets["levels"].split(",")) * _grid_rows(job),
            # One cold sweep per run: a second one would double the baths
            # the program's LRU holds, so peak_rss_mb would depend on how
            # fast the machine is.
            max_jobs=1,
        ),
        Workload(
            "emission_warm",
            "asymptotic-emission decay grid on one warm default bath: one solve, then "
            "many column evaluations",
            _emission_draw,
            _emission_verify,
            _grid_rows,
            # Two grid points are enough to fill the bath cache.
            warmup={"n_points": "2"},
        ),
        Workload(
            "spin_grid",
            "10001-point spin grid cycling three posts: no bath; propagators, the generic "
            "kernel and CSV rendering",
            _spin_draw,
            _spin_verify,
            _grid_rows,
        ),
        Workload(
            "sums_grid",
            "default lattice-sum grid with seeded gamma: 101 million-term phased "
            "Lorentzian sums",
            _sums_draw,
            _sums_verify,
            _grid_rows,
        ),
    )
}
