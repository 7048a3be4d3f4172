"""Scenario orchestration: flat-file configs, deterministic CSV rows, sweeps.

A scenario evaluates one model over a time grid and writes one CSV row per
grid point with the numeric value, the closed-form comparator and their
absolute difference.  Identical configs produce byte-identical output.  Every
model evaluates its grid in one call, held as arrays; a numerical failure (a
vanishing post-selection, a window or grid beyond the recurrence guard) does
not depend on the probe time, so it is one error name that marks every row
and that the summary states once.
The ``sweep`` model is the survival law over bath sizes, one row per level.

Config files are flat ``key = value`` lines with ``#`` comments; every key
can also be overridden on the command line with ``--set key=value``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Optional, get_type_hints

import numpy as np

from . import decay, laws, spin, sums
from .core import check_recurrence, window_problem
from .errors import BeyondRecurrence, ConfigInvalid, DimensionMismatch, WeakDecayError

CSV_HEADER = "t,value_re,value_im,reference_re,reference_im,abs_error"

# Largest time grid: at this size a spin run takes ~2.5-3 s on one core, peaks near
# 92 MB RSS (evaluation in time blocks, the CSV written block by block) and
# writes an 80 MB CSV; an asymptotic decay run peaks near 154 MiB, inside its route.
MAX_POINTS = 1_000_000

# Rows per CSV render block.  Each block reprs its distinct cells once; one memo
# over a whole 1e6-row table raised that run's peak RSS from 390 to 727 MB.
_RENDER_ROWS = 2048

# Largest lattice-sum job (n_points * k_max terms): ~0.12 s on one core at 2
# points, where the far rows' series coefficients and base tables, chunk by
# chunk, dominate, and 32 MB peak RSS; ~0.04 s at 10 points.
MAX_SUM_TERMS = 10**9

_SPIN_POSTS = {
    "yplus": spin.PostChoice.Y_PLUS,
    "xminus": spin.PostChoice.X_MINUS,
    "xplus": spin.PostChoice.X_PLUS,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario parameters; build_config parses each key by its field's type."""

    model: str
    t_start: float
    t_end: float
    n_points: int
    tolerance: float
    out: Optional[str]
    # spin / decay selection window
    omega: float
    t_i: float
    t_f: float
    post: str
    # decay
    n_half: int
    gamma: float
    delta_e: float
    # sums
    k_max: int
    # sweep
    levels: tuple[int, ...]
    scaling: str

    # The model objects, built once from the fields above.  Their
    # constructors hold the range checks; build_config reports the
    # ValueErrors they raise as config problems.

    @functools.cached_property
    def bath(self) -> decay.BathSpec:
        return decay.BathSpec(self.n_half, self.gamma, self.delta_e)

    @functools.cached_property
    def decay_post(self) -> decay.PostSpec:
        spec = decay.PostSpec(self.post)
        if spec.photon_atom is not None:  # an atom's range is its bath's, so the bath builds first
            try:
                decay.slot_of_atom(self.bath.n_half, spec.photon_atom)
            except DimensionMismatch as exc:
                raise ValueError(f"post: bad photon atom in {self.post!r}: {exc}") from None
        return spec

    @functools.cached_property
    def sum_params(self) -> sums.SumParams:
        return sums.SumParams(self.gamma, self.delta_e, self.k_max)

    @functools.cached_property
    def level_baths(self) -> tuple[decay.BathSpec, ...]:
        """One bath per sweep level; ``fixed_band`` keeps the band ``n_half * delta_e``."""
        fixed_band = self.scaling == "fixed_band"
        # gamma and delta_e would fail alike at every level, so they are checked once,
        # unprefixed: on the band's bath under fixed_band, else on a one-atom bath
        shared = self.bath if fixed_band else decay.BathSpec(1, self.gamma, self.delta_e)
        band = shared.delta_e * shared.n_half
        try:
            return tuple(
                decay.BathSpec(n, self.gamma, band / n if fixed_band else self.delta_e)
                for n in self.levels
            )
        except ValueError as exc:
            raise ValueError(f"levels: {exc}") from None


_MODEL_OBJECTS = {
    "decay": ("bath", "decay_post"),
    "sums": ("sum_params",),
    "sweep": ("level_baths",),
}


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


# Keys parse, and their problems list, in this order.
_DEFAULTS: dict[str, str] = {
    "model": "spin",
    "t_i": "0.0",
    "t_f": "2.0",
    "n_points": "101",
    "t_start": "",
    "t_end": "",
    "gamma": "1.0",
    "tolerance": "",
    "omega": "1.0",
    "delta_e": "0.05",
    "n_half": "2000",
    "k_max": "1000000",
    "levels": "",
    "out": "",
    "post": "",
    "scaling": "fixed_spacing",
}

# Each model's own defaults over _DEFAULTS, also for a key left empty.  Else an
# empty t_start / t_end is t_i / t_f, and decay and sums derive their tolerance.
_MODEL_DEFAULTS: dict[str, dict[str, str]] = {
    "spin": {"post": "xplus", "tolerance": "1e-10"},
    "decay": {"post": "photon:1"},
    "sums": {"t_start": "0.0", "t_end": "3.0"},
    # check C4: at delta_e = 0.05 the N = 2000 error exceeds the tolerance
    "sweep": {"levels": "250,500,1000,2000", "delta_e": "0.1", "t_end": "4.0", "tolerance": "0.01"},
}


def _integers(text: str) -> tuple[int, ...]:
    return tuple(int(x.strip()) for x in text.split(",") if x.strip())


# Each ScenarioConfig field type's parser, and the problem a text it rejects is
# reported as; text fields take any text.
_PARSERS = {
    float: (float, "not a number"),
    int: (int, "not an integer"),
    tuple[int, ...]: (_integers, "not a comma-separated integer list"),
    str: (str, None),
    Optional[str]: (lambda text: text or None, None),
}
_FIELD_TYPES = get_type_hints(ScenarioConfig)


def build_config(raw: dict[str, str]) -> ScenarioConfig:
    """Validate raw key/value pairs into a ScenarioConfig.

    Raises ConfigInvalid carrying one diagnostic per offending field.  Values
    that do not parse are reported with any unknown keys, without range checks.
    """
    problems: list[str] = []
    unknown = sorted(set(raw) - set(_DEFAULTS))
    if unknown:
        problems.append(f"unknown keys: {', '.join(unknown)}")
    model = raw.get("model", _DEFAULTS["model"])
    if model not in _MODEL_DEFAULTS:
        problems.append(f"model must be one of {tuple(_MODEL_DEFAULTS)}, got {model!r}")
        raise ConfigInvalid(problems)
    own = _MODEL_DEFAULTS[model]
    merged = {**_DEFAULTS, **own}
    merged.update((k, v) for k, v in raw.items() if k in _DEFAULTS and (v or k not in own))

    unknown_only = len(problems)
    values: dict = {}
    for key, text in merged.items():
        kind = _FIELD_TYPES[key]
        parse, failure = _PARSERS[kind]
        if kind is float and text == "":  # filled below, or required
            if key not in ("t_start", "t_end", "tolerance"):
                problems.append(f"{key}: required")
            continue
        try:
            values[key] = parse(text)
        except ValueError:
            problems.append(f"{key}: {failure}: {text!r}")
    if len(problems) > unknown_only:
        raise ConfigInvalid(problems)
    values.setdefault("t_start", values["t_i"])
    values.setdefault("t_end", values["t_f"])
    if model == "decay":
        values.setdefault("tolerance", 0.05 if values["post"] == "undecayed" else 0.01)
    elif model == "sums":
        # a gamma whose 0.005 pi / gamma is 0.0 or inf leaves 0.01; its own check reports it
        derived = 0.005 * math.pi / values["gamma"] if values["gamma"] > 0 else 0.0
        values.setdefault("tolerance", derived if 0.0 < derived < math.inf else 0.01)
    config = ScenarioConfig(**values)
    t_i, t_f, t_start, t_end = config.t_i, config.t_f, config.t_start, config.t_end

    if not 2 <= config.n_points <= MAX_POINTS:
        problems.append(f"n_points: need 2 <= n_points <= {MAX_POINTS}, got {config.n_points}")
    if model in ("spin", "decay"):
        # a bad window is one problem (spin's comes with omega, below): the grid is not checked in it
        if (window := window_problem(t_i, t_f)) and model == "decay":
            problems.append(window)
        if not window and not (t_i <= t_start <= t_end <= t_f):
            problems.append(
                f"time grid [{t_start}, {t_end}] must lie within the selection window [{t_i}, {t_f}]"
            )
    elif not (0.0 <= t_start <= t_end < math.inf):  # sums and sweep: survival times
        problems.append(
            f"time grid: {model} needs finite 0 <= t_start <= t_end, got ({t_start}, {t_end})"
        )
    if model == "spin" and config.post not in _SPIN_POSTS:
        problems.append(f"post: spin accepts {sorted(_SPIN_POSTS)}, got {config.post!r}")

    if list(config.levels) != sorted(config.levels):
        problems.append("levels: must be ascending")
    elif model == "sweep" and not config.levels:
        problems.append("levels: need a nonempty ascending list")
    if config.scaling not in ("fixed_spacing", "fixed_band"):
        problems.append(f"scaling: must be fixed_spacing or fixed_band, got {config.scaling!r}")

    if not (0.0 < config.tolerance < math.inf):
        problems.append(f"tolerance: need a finite value > 0, got {config.tolerance}")
    problems += out_problems(config.out)

    terms = config.n_points * config.k_max
    if model == "sums" and terms > MAX_SUM_TERMS:
        problems.append(f"k_max: n_points * k_max = {terms} terms, need <= {MAX_SUM_TERMS}")
    if model == "spin" and (problem := spin.params_problem(config.omega, t_i, t_f)):
        problems.append(problem)
    for name in _MODEL_OBJECTS.get(model, ()):
        try:
            getattr(config, name)
        except ValueError as exc:
            if str(exc) not in problems:  # an object built on a failed one repeats its problem
                problems.append(str(exc))
    if problems:
        raise ConfigInvalid(problems)
    return config


def out_problems(out: Optional[str]) -> list[str]:
    """An output path is checked before any work: its directory must already exist, and it must not be one."""
    if not out:
        return []
    if os.path.isdir(out):
        return [f"out: {out!r} is a directory, need a file path"]
    directory = os.path.dirname(out) or "."
    return [] if os.path.isdir(directory) else [f"out: directory {directory!r} does not exist"]


def _spin_values(config: ScenarioConfig, grid: np.ndarray):
    operands = (config.omega, config.t_i, grid, config.t_f, _SPIN_POSTS[config.post])
    return spin.spin_weak_kernel(*operands), spin.spin_weak_closed(*operands)


def _decay_values(config: ScenarioConfig, grid: np.ndarray):
    operands = (config.bath, config.t_i, grid, config.t_f, config.decay_post)
    return decay.weak_survival_numeric(*operands), decay.weak_survival_closed(*operands)


def _sums_values(config: ScenarioConfig, grid: np.ndarray):
    check_recurrence(grid[-1], config.delta_e)
    return sums.phased_lorentzian_sum(config.sum_params, grid), laws.lattice_limit(config.gamma, grid)


_EVALUATORS = {"spin": _spin_values, "decay": _decay_values, "sums": _sums_values}


@dataclass(frozen=True)
class Rows:
    """A scenario table as columns, one row per grid point; a failure is nan and one name."""

    t: np.ndarray
    value: np.ndarray
    reference: np.ndarray
    error: Optional[str] = None

    @functools.cached_property
    def abs_error(self) -> np.ndarray:
        # hypot is Python's complex abs bit for bit, but inf where that raises OverflowError;
        # numpy's complex abs can differ in the last bit
        difference = self.value - self.reference
        return np.hypot(difference.real, difference.imag)

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self):
        """``(t, value, reference, abs_error)`` per row; abs_error is None after a failure."""
        abs_error = [None] * len(self) if self.error else self.abs_error.tolist()
        return zip(self.t.tolist(), self.value.tolist(), self.reference.tolist(), abs_error)


@dataclass
class ScenarioResult:
    rows: Rows
    summary: dict

    @property
    def passed(self) -> bool:
        return bool(self.summary["passed"])

    def to_csv(self, file=None) -> Optional[str]:
        """The CSV text; with ``file``, an open text file, it is written there block by block instead."""
        return rows_to_csv(self.rows, file)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Evaluate the configured model over its grid; a numerical failure marks every row."""
    if config.model not in _EVALUATORS:
        raise ConfigInvalid(
            [f"model: run a {config.model!r} config with convergence_sweep, not run_scenario"]
        )
    grid = np.linspace(config.t_start, config.t_end, config.n_points)
    try:
        # every evaluator returns new, writable arrays, so they are changed in place:
        # adding 0.0 turns a signed zero into 0.0 and leaves every other bit, so no
        # cell reads -0.0
        value, reference = (np.asarray(a, complex) for a in _EVALUATORS[config.model](config, grid))
        value += 0.0
        reference += 0.0
        rows = Rows(grid, value, reference)
    except WeakDecayError as exc:
        value = np.full(grid.shape, complex(math.nan, 0.0))
        reference = np.full(grid.shape, complex(math.nan, math.nan))
        rows = Rows(grid, value, reference, type(exc).__name__)

    # np.max, not max: a NaN row must fail the tolerance, wherever it sits
    max_err = None if rows.error else float(np.max(rows.abs_error))
    summary = {
        "model": config.model,
        "post": config.post or None,
        "n_rows": len(rows),
        "max_abs_error": max_err,
        "tolerance": config.tolerance,
        "passed": bool(max_err is not None and max_err <= config.tolerance),
        "row_errors": [{"error": rows.error, "rows": len(rows)}] if rows.error else [],
    }
    if config.model == "decay":
        summary["recurrence_time"] = config.bath.recurrence_time
        if config.post == "asymptotic":
            summary["truncation_bound"] = decay.asymptotic_truncation_bound(config.bath)
    elif config.model == "sums":
        summary["recurrence_time"] = config.sum_params.recurrence_time
        summary["truncation_bound"] = (
            sums.tail_bound(config.k_max, config.delta_e) if config.k_max else None
        )
    return ScenarioResult(rows, summary)


def rows_to_csv(rows: Rows, file=None) -> Optional[str]:
    """Render rows under the fixed header; bit-exact for identical inputs.

    Rows render in blocks of ``_RENDER_ROWS``.  A block keys each cell by its
    float64 bits, so -0.0 stays apart from 0.0 and every NaN reads ``nan``; it
    calls ``repr`` once per distinct key and gathers the strings back in row
    order, so the text is that of a ``repr`` per cell.  After a failure the
    abs_error cells read ``none``.  Without ``file`` the text is returned;
    with an open text file each block is written to it as it renders, so the
    whole text never exists, and None is returned.
    """
    columns = [rows.t, rows.value.real, rows.value.imag, rows.reference.real, rows.reference.imag]
    if not rows.error:
        columns.append(rows.abs_error)
    # a block's text in row order: every cell followed by its separator
    cells = np.empty((min(len(rows), _RENDER_ROWS), 12), dtype=object)
    cells[:] = [None, ","] * 5 + ["none", "\n"]
    parts: list[str] = []
    write = parts.append if file is None else file.write
    write(CSV_HEADER + "\n")
    for start in range(0, len(rows), _RENDER_ROWS):
        block = np.stack([column[start : start + _RENDER_ROWS] for column in columns], axis=1)
        keys, inverse = np.unique(block.view(np.int64), return_inverse=True)
        text = np.array(list(map(float.__repr__, keys.view(np.float64).tolist())), dtype=object)
        filled = cells[: len(block)]
        filled[:, : 2 * len(columns) : 2] = text[inverse.reshape(block.shape)]
        write("".join(filled.ravel().tolist()))
    return "".join(parts) if file is None else None


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SweepRow:
    n_half: int
    max_abs_error: Optional[float]
    seconds: float
    marker: str = ""


class SweepResult(ScenarioResult):
    """A sweep's rows are SweepRows, one per level."""

    @property
    def trend(self) -> str:
        return self.summary["trend"]  # "decreasing" | "exact" | "not-decreasing" | "n/a"

    def to_csv(self, file=None) -> Optional[str]:
        lines = ["n_half,max_abs_error,seconds,marker"]
        for r in self.rows:
            err = "none" if r.max_abs_error is None else repr(r.max_abs_error)
            lines.append(f"{r.n_half},{err},{r.seconds:.3f},{r.marker}")
        text = "\n".join(lines) + "\n"
        if file is None:
            return text
        file.write(text)
        return None


def convergence_sweep(config: ScenarioConfig) -> SweepResult:
    """Survival-law error versus bath size at fixed gamma, over ``config.level_baths``.

    Each level reports the max over the grid of ``| |U00(t)|^2 - e^{-2 gamma t} |``;
    levels whose grid extends beyond the recurrence guard are marked and
    skipped rather than failing the whole sweep.  The sweep passes when the
    finest usable level meets the tolerance and the errors do not grow.

    ``scaling = "fixed_spacing"`` keeps ``delta_e`` at the configured value
    for every level, so the bath band widens with N and the error shrinks.
    ``scaling = "fixed_band"`` keeps ``n_half * delta_e`` at the configured
    product instead; the band-width transient then stays put (instructive,
    but not a convergent sequence) and small levels hit the recurrence guard.
    """
    grid = np.linspace(config.t_start, config.t_end, config.n_points)
    rows: list[SweepRow] = []
    for bath in config.level_baths:
        start = time.perf_counter()
        try:
            survival = decay.survival_probability(bath, grid)
            err = float(np.max(np.abs(survival - laws.survival_limit(config.gamma, grid))))
            marker = ""
        except BeyondRecurrence:
            err, marker = None, "beyond_recurrence"
        rows.append(SweepRow(bath.n_half, err, time.perf_counter() - start, marker))
    usable = [r.max_abs_error for r in rows if r.max_abs_error is not None]
    if len(usable) < 2:
        trend = "n/a"
    elif not any(usable):  # every level exact: nothing left to decrease
        trend = "exact"
    elif all(b <= 2.0 * a for a, b in zip(usable, usable[1:])) and usable[-1] < usable[0]:
        trend = "decreasing"
    else:
        trend = "not-decreasing"
    summary = {
        "levels": list(config.levels),
        "max_abs_errors": usable,
        "markers": {r.n_half: r.marker for r in rows if r.marker},
        "trend": trend,
        "tolerance": config.tolerance,
        "passed": bool(usable and usable[-1] <= config.tolerance and trend != "not-decreasing"),
    }
    return SweepResult(rows, summary)
