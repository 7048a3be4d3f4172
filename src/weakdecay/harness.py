"""Scenario orchestration: flat-file configs, deterministic CSV rows, sweeps.

A scenario evaluates one model over a time grid and writes one CSV row per
grid point with the numeric value, the closed-form comparator when one
exists, and their absolute difference.  Identical configs produce
byte-identical output.  Spin and decay evaluate the whole grid in one call;
since the selection window is fixed, a numerical failure there (a vanishing
post-selection, a window beyond the recurrence guard) marks every row.

Config files are flat ``key = value`` lines with ``#`` comments; every key
can also be overridden on the command line with ``--set key=value``.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import decay, spin, sums
from .errors import ConfigInvalid, DimensionMismatch, WeakDecayError

CSV_HEADER = "t,value_re,value_im,reference_re,reference_im,abs_error"

_SPIN_POSTS = {
    "yplus": spin.PostChoice.y_plus,
    "xminus": spin.PostChoice.x_minus,
    "xplus": spin.PostChoice.x_plus,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario parameters (one model, one time grid)."""

    model: str
    t_start: float
    t_end: float
    n_points: int
    tolerance: float
    out: Optional[str] = None
    # spin / decay selection window
    omega: float = 1.0
    t_i: float = 0.0
    t_f: float = 2.0
    post: str = "xplus"
    # decay
    n_half: int = 2000
    gamma: float = 1.0
    delta_e: float = 0.05
    # sums
    k_max: int = 10**6
    # sweep
    levels: tuple[int, ...] = ()
    scaling: str = "fixed_spacing"

    # The model objects, built once from the fields above.  Their
    # constructors hold the range checks; build_config reports the
    # ValueErrors they raise as config problems.

    @functools.cached_property
    def spin_params(self) -> spin.SpinParams:
        return spin.SpinParams(self.omega, self.t_i, self.t_f)

    @functools.cached_property
    def bath(self) -> decay.BathSpec:
        return decay.BathSpec.from_gamma(self.n_half, self.gamma, self.delta_e)

    @functools.cached_property
    def decay_post(self) -> decay.PostSpec:
        return _parse_decay_post(self.post, self.n_half)

    @functools.cached_property
    def sum_params(self) -> sums.SumParams:
        return sums.SumParams(self.gamma, self.delta_e, 0.0, self.k_max)


_MODEL_OBJECTS = {
    "spin": ("spin_params",),
    "decay": ("bath", "decay_post"),
    "sums": ("sum_params",),
}


@dataclass(frozen=True)
class ResultRow:
    t: float
    value: complex
    reference: Optional[complex]
    error: Optional[str] = None

    @property
    def abs_error(self) -> Optional[float]:
        if self.reference is None or self.error is not None:
            return None
        return abs(self.value - self.reference)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigInvalid([f"line {lineno}: expected 'key = value', got {stripped!r}"])
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


_DEFAULTS: dict[str, str] = {
    "model": "spin",
    "t_start": "",
    "t_end": "",
    "n_points": "101",
    "tolerance": "",
    "out": "",
    "omega": "1.0",
    "t_i": "0.0",
    "t_f": "2.0",
    "post": "",
    "n_half": "2000",
    "gamma": "1.0",
    "delta_e": "0.05",
    "k_max": "1000000",
    "levels": "",
    "scaling": "fixed_spacing",
}

_DEFAULT_POST = {"spin": "xplus", "decay": "photon:1", "sums": ""}


def build_config(raw: dict[str, str]) -> ScenarioConfig:
    """Validate raw key/value pairs into a ScenarioConfig.

    Raises ConfigInvalid carrying one diagnostic per offending field.
    """
    problems: list[str] = []
    unknown = sorted(set(raw) - set(_DEFAULTS))
    if unknown:
        problems.append(f"unknown keys: {', '.join(unknown)}")
    merged = dict(_DEFAULTS)
    merged.update({k: v for k, v in raw.items() if k in _DEFAULTS})

    model = merged["model"]
    if model not in _EVALUATORS:
        problems.append(f"model must be one of {tuple(_EVALUATORS)}, got {model!r}")
        raise ConfigInvalid(problems)

    def number(key: str, default: Optional[float] = None) -> float:
        text = merged[key]
        if text == "":
            if default is None:
                problems.append(f"{key}: required")
                return math.nan
            return default
        try:
            return float(text)
        except ValueError:
            problems.append(f"{key}: not a number: {text!r}")
            return math.nan

    def integer(key: str) -> int:
        try:
            return int(merged[key])
        except ValueError:
            problems.append(f"{key}: not an integer: {merged[key]!r}")
            return 0

    t_i = number("t_i")
    t_f = number("t_f")
    n_points = integer("n_points")
    t_start = number("t_start", default=t_i if model != "sums" else 0.0)
    t_end = number("t_end", default=t_f if model != "sums" else 3.0)
    post = merged["post"] or _DEFAULT_POST[model]

    if n_points < 2:
        problems.append(f"n_points: need at least 2, got {n_points}")
    if model == "decay" and not (math.isfinite(t_i) and math.isfinite(t_f) and t_i < t_f):
        problems.append(f"t_i/t_f: need finite t_i < t_f, got ({t_i}, {t_f})")
    if model in ("spin", "decay"):
        if not (t_i <= t_start <= t_end <= t_f):
            problems.append(
                f"time grid [{t_start}, {t_end}] must lie within the selection window [{t_i}, {t_f}]"
            )
    elif not (0.0 <= t_start <= t_end < math.inf):
        problems.append(
            f"time grid: sums need finite 0 <= t_start <= t_end, got ({t_start}, {t_end})"
        )
    if model == "spin" and post not in _SPIN_POSTS:
        problems.append(f"post: spin accepts {sorted(_SPIN_POSTS)}, got {post!r}")

    levels: tuple[int, ...] = ()
    if merged["levels"]:
        try:
            levels = tuple(int(x.strip()) for x in merged["levels"].split(",") if x.strip())
        except ValueError:
            problems.append(f"levels: not a comma-separated integer list: {merged['levels']!r}")
        if levels and list(levels) != sorted(levels):
            problems.append("levels: must be ascending")
    scaling = merged["scaling"]
    if scaling not in ("fixed_spacing", "fixed_band"):
        problems.append(f"scaling: must be fixed_spacing or fixed_band, got {scaling!r}")

    gamma = number("gamma")
    default_tol = {
        "spin": 1e-10,
        "decay": 0.05 if post == "undecayed" else 0.01,
        "sums": 0.005 * math.pi / gamma if gamma > 0 else 0.01,
    }[model]
    tolerance = number("tolerance", default=default_tol)
    if not (0.0 < tolerance < math.inf):
        problems.append(f"tolerance: need a finite value > 0, got {tolerance}")

    config = ScenarioConfig(
        model=model,
        t_start=t_start,
        t_end=t_end,
        n_points=n_points,
        tolerance=tolerance,
        out=merged["out"] or None,
        omega=number("omega"),
        t_i=t_i,
        t_f=t_f,
        post=post,
        n_half=integer("n_half"),
        gamma=gamma,
        delta_e=number("delta_e"),
        k_max=integer("k_max"),
        levels=levels,
        scaling=scaling,
    )
    for name in _MODEL_OBJECTS[model]:
        try:
            getattr(config, name)
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigInvalid(problems)
    return config


def _parse_decay_post(post: str, n_half: int) -> decay.PostSpec:
    if post == "asymptotic":
        return decay.PostSpec.asymptotic_emission()
    if post == "undecayed":
        return decay.PostSpec.undecayed()
    if not post.startswith("photon:"):
        raise ValueError(
            f"post: decay accepts 'photon:K', 'asymptotic' or 'undecayed', got {post!r}"
        )
    try:
        spec = decay.PostSpec.single_photon(int(post.removeprefix("photon:")))
        decay.slot_of_atom(n_half, spec.photon_atom)
    except (ValueError, DimensionMismatch) as exc:
        raise ValueError(f"post: bad photon atom in {post!r}: {exc}") from None
    return spec


def _spin_values(config: ScenarioConfig, grid: np.ndarray):
    choice = _SPIN_POSTS[config.post]()
    params = config.spin_params
    return (
        spin.spin_weak_kernel(choice.state, params, grid),
        spin.spin_weak_closed(choice, params, grid),
    )


def _decay_values(config: ScenarioConfig, grid: np.ndarray):
    bath, post = config.bath, config.decay_post
    value = decay.weak_survival_numeric(
        decay.DecayQuery(bath, config.t_i, grid, config.t_f, post)
    )
    if post.kind is decay.PostKind.SINGLE_PHOTON:
        reference = decay.weak_survival_single_photon(
            bath.gamma, post.photon_atom * bath.delta_e, config.t_i, grid, config.t_f
        )
    elif post.kind is decay.PostKind.ASYMPTOTIC_EMISSION:
        reference = decay.weak_survival_asymptotic_post(bath.gamma, config.t_i, grid, config.t_f)
    else:
        reference = np.ones(grid.shape, dtype=complex)
    return value, reference


def _sums_values(config: ScenarioConfig, grid: np.ndarray):
    # One million-term sum per point: a points x terms array would not fit
    # comfortably in memory, so the grid is walked point by point.
    gamma = config.gamma
    values = [sums.phased_lorentzian_sum(replace(config.sum_params, t=t)) for t in grid]
    references = [math.pi / gamma * math.exp(-gamma * t) for t in grid]
    return values, references


_EVALUATORS = {"spin": _spin_values, "decay": _decay_values, "sums": _sums_values}


@dataclass
class ScenarioResult:
    rows: list[ResultRow]
    summary: dict

    @property
    def passed(self) -> bool:
        return bool(self.summary["passed"])


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Evaluate the configured model over its grid; numerical failures become row errors."""
    grid = np.linspace(config.t_start, config.t_end, config.n_points)
    try:
        values, references = _EVALUATORS[config.model](config, grid)
        rows = [
            ResultRow(t, complex(v), complex(r)) for t, v, r in zip(grid, values, references)
        ]
    except WeakDecayError as exc:
        rows = [ResultRow(t, complex("nan"), None, error=type(exc).__name__) for t in grid]

    errors = [r.abs_error for r in rows if r.abs_error is not None]
    row_errors = [{"t": r.t, "error": r.error} for r in rows if r.error is not None]
    max_err = max(errors) if errors else None
    summary = {
        "model": config.model,
        "post": config.post or None,
        "n_rows": len(rows),
        "max_abs_error": max_err,
        "tolerance": config.tolerance,
        "passed": bool(max_err is not None and max_err <= config.tolerance and not row_errors),
        "row_errors": row_errors,
    }
    if config.model == "decay":
        summary["recurrence_time"] = config.bath.recurrence_time
        if config.post == "asymptotic":
            summary["truncation_bound"] = decay.asymptotic_truncation_bound(config.bath)
    return ScenarioResult(rows, summary)


def _fmt(x: float) -> str:
    return repr(float(x))


def rows_to_csv(rows: list[ResultRow]) -> str:
    """Render rows under the fixed header; bit-exact for identical inputs."""
    lines = [CSV_HEADER]
    for r in rows:
        if r.reference is None:
            ref_re, ref_im = "nan", "nan"
        else:
            ref_re, ref_im = _fmt(r.reference.real), _fmt(r.reference.imag)
        abs_err = "none" if r.abs_error is None else _fmt(r.abs_error)
        lines.append(
            ",".join(
                [_fmt(r.t), _fmt(r.value.real), _fmt(r.value.imag), ref_re, ref_im, abs_err]
            )
        )
    return "\n".join(lines) + "\n"


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SweepRow:
    n_half: int
    max_abs_error: Optional[float]
    seconds: float
    marker: str = ""


@dataclass
class SweepResult:
    rows: list[SweepRow]
    trend: str  # "decreasing" | "not-decreasing" | "n/a"

    def to_csv(self) -> str:
        lines = ["n_half,max_abs_error,seconds,marker"]
        for r in self.rows:
            err = "none" if r.max_abs_error is None else _fmt(r.max_abs_error)
            lines.append(f"{r.n_half},{err},{r.seconds:.3f},{r.marker}")
        return "\n".join(lines) + "\n"


def convergence_sweep(base: ScenarioConfig, levels: tuple[int, ...]) -> SweepResult:
    """Survival-law error versus bath size at fixed gamma.

    Each level reports the max over the grid of ``| |U00(t)|^2 - e^{-2 gamma t} |``;
    levels whose grid extends beyond the recurrence guard are marked and
    skipped rather than failing the whole sweep.

    ``scaling = "fixed_spacing"`` keeps ``delta_e`` at the configured value
    for every level, so the bath band widens with N and the error shrinks.
    ``scaling = "fixed_band"`` keeps ``n_half * delta_e`` at the configured
    product instead; the band-width transient then stays put (instructive,
    but not a convergent sequence) and small levels hit the recurrence guard.
    """
    if list(levels) != sorted(levels) or not levels:
        raise ConfigInvalid(["levels: need a nonempty ascending list"])
    grid = np.linspace(base.t_start, base.t_end, base.n_points)
    rows: list[SweepRow] = []
    for n_half in levels:
        start = time.perf_counter()
        if base.scaling == "fixed_band":
            delta_e = base.delta_e * base.n_half / n_half
        else:
            delta_e = base.delta_e
        try:
            bath = decay.BathSpec.from_gamma(n_half, base.gamma, delta_e)
        except ValueError as exc:
            raise ConfigInvalid([f"levels: {exc}"]) from None
        if grid[-1] >= bath.recurrence_guard:
            rows.append(
                SweepRow(n_half, None, time.perf_counter() - start, "beyond_recurrence")
            )
            continue
        survival = decay.survival_probability(bath, grid)
        err = float(np.max(np.abs(survival - np.exp(-2.0 * base.gamma * grid))))
        rows.append(SweepRow(n_half, err, time.perf_counter() - start))
    usable = [r.max_abs_error for r in rows if r.max_abs_error is not None]
    if len(usable) < 2:
        trend = "n/a"
    elif all(b <= 2.0 * a for a, b in zip(usable, usable[1:])) and usable[-1] < usable[0]:
        trend = "decreasing"
    else:
        trend = "not-decreasing"
    return SweepResult(rows, trend)
