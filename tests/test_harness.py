import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdecay import ConfigInvalid
from weakdecay import checks, cli, decay, harness, sums

CONFIG_KEYS = (
    "model", "t_start", "t_end", "n_points", "tolerance", "out", "omega", "t_i", "t_f",
    "post", "n_half", "gamma", "delta_e", "k_max", "levels", "scaling",
)


# ---------------------------------------------------------------- config parsing

def test_parse_config_text_basics():
    raw = harness.parse_config_text(
        """
        # comment
        model = spin
        omega = 2.0   # trailing comment
        t_f = 3.0
        """
    )
    assert raw == {"model": "spin", "omega": "2.0", "t_f": "3.0"}


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigInvalid):
        harness.parse_config_text("just words\n")


def test_build_config_defaults_and_overrides():
    cfg = harness.build_config({"model": "spin", "omega": "2.5"})
    assert cfg.model == "spin"
    assert cfg.omega == 2.5
    assert cfg.n_points == 101
    assert cfg.t_start == cfg.t_i and cfg.t_end == cfg.t_f
    assert cfg.tolerance == 1e-10


def test_build_config_unknown_key():
    with pytest.raises(ConfigInvalid, match="unknown keys"):
        harness.build_config({"model": "spin", "bogus": "1"})


def test_build_config_grid_outside_window():
    with pytest.raises(ConfigInvalid, match="within the selection window"):
        harness.build_config({"model": "spin", "t_f": "1.0", "t_end": "2.0"})


def test_build_config_field_diagnostics_accumulate():
    with pytest.raises(ConfigInvalid) as excinfo:
        harness.build_config({"model": "decay", "n_half": "0", "delta_e": "-1", "post": "nope"})
    text = "; ".join(excinfo.value.problems)
    assert "n_half" in text and "delta_e" in text and "post" in text
    # a single problem may be given as a string
    assert ConfigInvalid("one").problems == ["one"]


def test_build_config_bounds_the_grid_size():
    assert harness.build_config({"n_points": str(harness.MAX_POINTS)}).n_points == 10**6
    for n_points in (1, harness.MAX_POINTS + 1):
        message = f"n_points: need 2 <= n_points <= 1000000, got {n_points}"
        with pytest.raises(ConfigInvalid, match=message):
            harness.build_config({"model": "decay", "n_points": str(n_points)})


def test_build_config_bounds_the_lattice_sum_terms():
    k_max = harness.MAX_SUM_TERMS // 101
    assert harness.build_config({"model": "sums", "k_max": str(k_max)}).k_max == k_max
    message = rf"k_max: n_points \* k_max = {101 * (k_max + 1)} terms, need <= 1000000000"
    with pytest.raises(ConfigInvalid, match=message):
        harness.build_config({"model": "sums", "k_max": str(k_max + 1)})
    # the budget is for the sums model only
    assert harness.build_config({"model": "decay", "k_max": str(10**12)}).k_max == 10**12


def test_config_keys_are_the_documented_ones():
    assert set(harness._DEFAULTS) == set(CONFIG_KEYS)


def test_readme_quick_start_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    names: dict = {}
    exec(block, names)
    # the values the block's comments give, to the digits they show
    assert "# 1.207..." in block and "0.26898... - 0.00362...j" in block
    assert names["w"] == pytest.approx(1.2071, abs=5e-5)
    assert names["w_kernel"] == pytest.approx(names["w"], abs=1e-12)
    assert names["w_closed"] == pytest.approx(0.26898 - 0.00362j, abs=5e-6)


_RAW_VALUES = st.one_of(
    st.sampled_from(
        ["", "0", "1", "-1", "2", "0.5", "3.0", "1e400", "-1e400", "nan", "inf", "-inf",
         "5e-324", "1e308", "photon:1", "photon:-3", "photon:0", "photon:x", "photon:99",
         "asymptotic", "undecayed", "xplus", "xminus", "yplus", "100,200", "200,100",
         "0,100", "a,b", "fixed_band", "fixed_spacing", "rows.csv"]
    ),
    st.floats().map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(
    model=st.one_of(st.none(), st.sampled_from(["spin", "decay", "sums", "sweep", "bogus"])),
    raw=st.dictionaries(
        st.one_of(st.sampled_from(CONFIG_KEYS), st.text(max_size=8)), _RAW_VALUES, max_size=8
    ),
)
def test_any_raw_config_builds_or_raises_config_invalid(model, raw):
    if model is not None:
        raw = {**raw, "model": model}
    try:
        config = harness.build_config(raw)
    except ConfigInvalid as exc:
        assert exc.problems
        return
    assert config.model in ("spin", "decay", "sums", "sweep")
    assert config.n_points >= 2 and math.isfinite(config.tolerance)


def test_build_config_decay_post_forms():
    cfg = harness.build_config({"model": "decay", "post": "photon:-3", "n_half": "10"})
    assert cfg.post == "photon:-3"
    # the atom is written -?[1-9][0-9]*: int() alone would also read 1_0 as
    # atom 10, and accept " 2", "01" and "+1"
    for word in ("photon:0", "photon:1_0", "photon: 2", "photon:01", "photon:+1"):
        with pytest.raises(ConfigInvalid, match=re.escape(f"post: bad photon atom in '{word}': ")):
            harness.build_config({"model": "decay", "post": word})
    with pytest.raises(ConfigInvalid):
        harness.build_config({"model": "decay", "post": "photon:11", "n_half": "10"})


# ---------------------------------------------------------------- scenarios

def test_spin_scenario_matches_closed_form():
    cfg = harness.build_config(
        {"model": "spin", "post": "xminus", "t_f": str(math.pi / 2), "n_points": "101"}
    )
    result = harness.run_scenario(cfg)
    assert result.summary["max_abs_error"] <= 1e-10
    assert result.passed
    assert result.summary["row_errors"] == []
    assert len(result.rows) == 101


def test_spin_scenario_row_errors_are_markers_not_aborts():
    # whole window of pi makes the +x closed form singular at every grid point
    cfg = harness.build_config({"model": "spin", "post": "xplus", "t_f": str(math.pi)})
    result = harness.run_scenario(cfg)
    assert not result.passed
    # the kernel and the closed form flag the same orthogonal post-selection,
    # one fact about the whole grid that the summary states once
    assert result.summary["row_errors"] == [{"error": "PostSelectionNull", "rows": cfg.n_points}]
    csv_text = harness.rows_to_csv(result.rows)
    assert csv_text.count("none") == cfg.n_points


def test_decay_scenario_small_bath():
    cfg = harness.build_config(
        {
            "model": "decay",
            "n_half": "200",
            "delta_e": "0.5",
            "post": "asymptotic",
            "t_f": "2.0",
            "n_points": "21",
            "tolerance": "0.05",
        }
    )
    result = harness.run_scenario(cfg)
    assert result.summary["max_abs_error"] is not None
    assert result.summary["row_errors"] == []
    assert "truncation_bound" in result.summary
    assert result.summary["recurrence_time"] == pytest.approx(2 * math.pi / 0.5)


def test_default_asymptotic_summary_bounds_the_truncation_at_the_configured_gamma():
    summary = harness.run_scenario(harness.build_config({"model": "decay", "post": "asymptotic"})).summary
    assert summary["truncation_bound"] == 2 * 1.0 / (math.pi * 2000 * 0.05)


def test_csv_abs_error_is_python_complex_abs():
    # on this grid numpy's complex abs differs from Python's in the last bit on some rows
    cfg = harness.build_config({"model": "decay", "n_half": "50", "delta_e": "0.5"})
    lines = harness.rows_to_csv(harness.run_scenario(cfg).rows).splitlines()[1:]
    for line in lines:
        t, v_re, v_im, r_re, r_im, err = map(float, line.split(","))
        assert err == abs(complex(v_re, v_im) - complex(r_re, r_im))


def test_sums_scenario():
    cfg = harness.build_config(
        {"model": "sums", "k_max": "20000", "t_start": "0.0", "t_end": "2.0", "n_points": "11"}
    )
    result = harness.run_scenario(cfg)
    assert result.passed
    assert result.summary["row_errors"] == []


def test_sums_scenario_sums_the_grid_in_one_call(monkeypatch):
    calls = []
    phased_sum = sums.phased_lorentzian_sum

    def counted(*args, **kwargs):
        calls.append(args)
        return phased_sum(*args, **kwargs)

    monkeypatch.setattr(sums, "phased_lorentzian_sum", counted)
    cfg = harness.build_config({"model": "sums", "k_max": "20000", "n_points": "7"})
    assert harness.run_scenario(cfg).passed
    assert len(calls) == 1


@pytest.mark.parametrize("k_max, bound", [("20000", 2 / (20000 * 0.05)), ("0", None)])
def test_sums_summary_reports_its_error_budget(k_max, bound):
    cfg = harness.build_config({"model": "sums", "k_max": k_max, "n_points": "5"})
    summary = json.loads(harness.summary_to_json(harness.run_scenario(cfg).summary))
    assert summary["truncation_bound"] == bound
    assert summary["recurrence_time"] == 2 * math.pi / 0.05


# ---------------------------------------------------------------- output format

def test_csv_header_and_determinism():
    cfg = harness.build_config({"model": "spin", "n_points": "11"})
    first = harness.rows_to_csv(harness.run_scenario(cfg).rows)
    second = harness.rows_to_csv(harness.run_scenario(cfg).rows)
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "t,value_re,value_im,reference_re,reference_im,abs_error"
    assert len(lines) == 12


@pytest.mark.parametrize("post, row", [("asymptotic", -1), ("photon:-3", 0)])
def test_decay_csv_writes_no_signed_zero(post, row):
    # at the decay defaults the value_im of this row (t = t_f, t = 0) comes out -0.0
    cfg = harness.build_config({"model": "decay", "post": post})
    rows = harness.run_scenario(cfg).rows
    cells = [line.split(",") for line in harness.rows_to_csv(rows).splitlines()[1:]]
    assert cells[row][2] == "0.0"
    assert all(cell != "-0.0" for line in cells for cell in line)
    # every other cell holds the value of the decay route, bit for bit
    numeric = decay.weak_survival_numeric(cfg.bath, cfg.t_i, rows.t, cfg.t_f, cfg.decay_post)
    assert numeric[row].imag == 0.0
    assert [complex(float(re), float(im)) for _, re, im, *_ in cells] == numeric.tolist()


def _csv_per_cell(rows):
    """The CSV by one ``repr`` per cell, abs_error by Python's complex abs."""
    lines = [harness.CSV_HEADER]
    for t, value, reference in zip(rows.t.tolist(), rows.value.tolist(), rows.reference.tolist()):
        error = "none" if rows.error else repr(abs(value - reference))
        cells = (t, value.real, value.imag, reference.real, reference.imag)
        lines.append(",".join([*map(repr, cells), error]))
    return "\n".join(lines) + "\n"


def _complex(re, im):
    """A complex array from its parts bit for bit (``re + 1j * im`` turns an inf part into nan)."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def test_csv_render_keys_cells_by_their_bits():
    # two blocks and a partial one; -0.0 beside 0.0, NaN, inf and the smallest
    # subnormal in every block, and one value across columns and the first block edge
    edge = harness._RENDER_ROWS
    n = 2 * edge + 5
    t = np.linspace(0.0, 1.0, n)
    value_re = np.random.default_rng(3).standard_normal(n)
    value_re[edge - 1 : edge + 1] = t[edge]
    reference_re = value_re.copy()
    reference_re[::7] = math.inf
    value_im = np.resize([-0.0, 0.0, 5e-324, math.nan], n)
    reference_im = np.resize([0.0, -0.0, math.inf, -5e-324], n)
    rows = harness.Rows(t, _complex(value_re, value_im), _complex(reference_re, reference_im))
    text = harness.rows_to_csv(rows)
    assert text == _csv_per_cell(rows)
    first = text.splitlines()[1:edge + 1]
    assert {line.split(",")[2] for line in first} == {"-0.0", "0.0", "5e-324", "nan"}
    assert text.splitlines()[edge].split(",")[1] == repr(t.tolist()[edge])


def test_csv_render_of_a_failure_reads_none():
    n = harness._RENDER_ROWS + 1
    value, reference = np.full(n, complex(math.nan, 0.0)), np.full(n, complex(math.nan, math.nan))
    rows = harness.Rows(np.linspace(0.0, 2.0, n), value, reference, "PostSelectionNull")
    text = harness.rows_to_csv(rows)
    assert text == _csv_per_cell(rows)
    assert text.count(",none\n") == n


@pytest.mark.parametrize("post", ["xplus", "xminus", "yplus"])
def test_spin_csv_at_10001_points_is_a_repr_per_cell(post):
    cfg = harness.build_config({"model": "spin", "post": post, "t_f": "1.1", "n_points": "10001"})
    result = harness.run_scenario(cfg)
    assert harness.rows_to_csv(result.rows) == _csv_per_cell(result.rows)
    # the summary and the row iterator keep Python's complex abs, as Python floats
    errors = [abs(v - r) for v, r in zip(result.rows.value.tolist(), result.rows.reference.tolist())]
    assert [row[3] for row in result.rows] == errors
    assert all(type(row[3]) is float for row in result.rows)
    assert result.summary["max_abs_error"] == max(errors)
    assert type(result.summary["max_abs_error"]) is float


def test_csv_render_keeps_no_row_tuples():
    # 2e4 rows of 17-digit cells: per-row tuples and f-strings peaked at 7.9 MiB,
    # one repr stream per column at 6.3 MiB, one repr per distinct cell of a row
    # block at 5.7 MiB
    rng = np.random.default_rng(5)
    value = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)
    rows = harness.Rows(np.linspace(0.0, 2.0, 20_000), value, value + 1e-3 * rng.standard_normal(20_000))
    rows.abs_error  # the summary forms it before any rendering
    tracemalloc.start()
    try:
        text = harness.rows_to_csv(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 20_001
    assert peak <= 7 * 2**20


def test_summary_json_is_single_line():
    cfg = harness.build_config({"model": "spin", "n_points": "5"})
    text = harness.summary_to_json(harness.run_scenario(cfg).summary)
    assert "\n" not in text
    assert json.loads(text)["model"] == "spin"


# ---------------------------------------------------------------- sweep

def _sweep_config(levels, **sets):
    return harness.build_config({"model": "sweep", "levels": levels, **sets})


def test_sweep_single_level_has_no_trend():
    cfg = _sweep_config("100", delta_e="0.2", t_end="3.0", n_points="31")
    result = harness.convergence_sweep(cfg)
    assert result.trend == "n/a"
    assert len(result.rows) == 1


def test_sweep_errors_decrease_with_fixed_spacing():
    cfg = _sweep_config("100,200,400", delta_e="0.2", t_end="3.0", n_points="31")
    result = harness.convergence_sweep(cfg)
    errs = [r.max_abs_error for r in result.rows]
    assert result.trend == "decreasing"
    assert errs[-1] < errs[0]


def test_sweep_marks_recurrence_violations_per_level():
    # fixed-band scaling gives small levels a coarse spacing and an early
    # recurrence, so they are marked while larger levels still report
    cfg = _sweep_config(
        "2,200", scaling="fixed_band", n_half="200", delta_e="0.1", t_end="4.0", n_points="21"
    )
    result = harness.convergence_sweep(cfg)
    assert result.rows[0].marker == "beyond_recurrence"
    assert result.rows[0].max_abs_error is None
    assert result.rows[1].marker == ""
    assert result.rows[1].max_abs_error is not None


def test_run_scenario_sends_a_sweep_config_to_convergence_sweep():
    cfg = _sweep_config("10")
    with pytest.raises(ConfigInvalid, match="convergence_sweep"):
        harness.run_scenario(cfg)


def test_sweep_rejects_unsorted_levels():
    with pytest.raises(ConfigInvalid, match="levels: must be ascending"):
        _sweep_config("200,100")


# ---------------------------------------------------------------- CLI

def test_cli_spin_ok(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = cli.main(["spin", "--set", "n_points=11", "--out", str(out)])
    captured = capsys.readouterr().out.strip()
    assert code == 0
    assert json.loads(captured)["passed"] is True
    assert out.read_text(encoding="utf-8").splitlines()[0] == harness.CSV_HEADER


def test_cli_config_file_and_set_override(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("model = spin\nn_points = 5\nomega = 1.0\n", encoding="utf-8")
    code = cli.main(["spin", "--config", str(cfg), "--set", "omega=2.0"])
    assert code == 0
    assert json.loads(capsys.readouterr().out.strip())["n_rows"] == 5


def test_cli_invalid_config_exits_2(tmp_path, capsys):
    code = cli.main(["spin", "--set", "t_end=9.0"])  # grid beyond the window
    assert code == 2
    assert "within the selection window" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("decay", "n_half", "2.5"),
        ("decay", "gamma", "abc"),
        ("decay", "t_f", "abc"),
        ("spin", "omega", "abc"),
        ("spin", "tolerance", "abc"),
    ],
)
def test_cli_unparseable_value_is_reported_once(command, key, value, no_spectrum, capsys):
    assert cli.main([command, "--set", f"{key}={value}"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"config error: {key}: not a") and repr(value) in lines[0]


@pytest.mark.parametrize("n_half", ["-3", "0"])
def test_cli_invalid_n_half_is_one_problem(n_half, no_spectrum, capsys):
    # the default post photon:1 is checked against the bath only once the bath builds
    assert cli.main(["decay", "--set", f"n_half={n_half}"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"config error: n_half: need 1 <= n_half <= {decay.MAX_N_HALF}, got {n_half}"]


@pytest.mark.parametrize(
    "gamma, problem",
    [
        ("inf", "need a finite value > 0, got inf"),
        ("1e-320", "center term delta_e / gamma**2 is not finite"),
    ],
)
def test_cli_sums_bad_gamma_is_one_problem(gamma, problem, capsys):
    # the default tolerance 0.005 pi / gamma is 0.0 or inf here; no tolerance
    # problem may join the gamma's
    assert cli.main(["sums", "--set", f"gamma={gamma}"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"config error: gamma: {problem}")


@pytest.mark.parametrize(
    "argv",
    [["spin", "--set", "t_i=3"], ["decay", "--set", "t_i=3"],
     ["spin", "--set", "t_i=nan"], ["decay", "--set", "t_i=nan"]],
    ids=["spin-reversed", "decay-reversed", "spin-nan", "decay-nan"],
)
def test_cli_bad_window_is_one_problem(argv, no_spectrum, capsys):
    # the grid defaults to the window, so a bad window alone must not add a grid problem
    assert cli.main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error: t_i/t_f: need finite t_i < t_f")


def test_cli_model_conflict_exits_2(capsys):
    assert cli.main(["spin", "--set", "model=decay"]) == 2


def test_cli_tolerance_breach_exits_1(capsys):
    code = cli.main(["spin", "--set", "tolerance=1e-30", "--set", "n_points=5"])
    assert code == 1
    assert json.loads(capsys.readouterr().out.strip())["passed"] is False


def test_nan_row_fails_the_tolerance(monkeypatch, capsys):
    # Python's max drops a NaN that is not first; the run must fail on it wherever it sits
    real = harness._EVALUATORS["spin"]

    def nan_at_row_2(config, grid):
        values, references = real(config, grid)
        values = np.array(values)
        values[2] = complex(math.nan, 0.0)
        return values, references

    monkeypatch.setitem(harness._EVALUATORS, "spin", nan_at_row_2)
    result = harness.run_scenario(harness.build_config({"model": "spin", "n_points": "5"}))
    assert math.isnan(result.summary["max_abs_error"])
    assert result.summary["passed"] is False
    assert cli.main(["spin", "--set", "n_points=5"]) == 1
    summary = json.loads(capsys.readouterr().out.strip())
    assert math.isnan(summary["max_abs_error"]) and summary["passed"] is False


def test_cli_numerical_failure_exits_3(monkeypatch, capsys):
    from weakdecay.errors import PostSelectionNull

    def boom(config):
        raise PostSelectionNull("synthetic numerical breakdown")

    monkeypatch.setattr(harness, "run_scenario", boom)
    code = cli.main(["spin", "--set", "n_points=5"])
    assert code == 3
    assert "PostSelectionNull" in capsys.readouterr().err


def test_cli_asymptotic_at_any_finite_gamma_reports_rows_not_a_traceback(tmp_path, capsys):
    # gamma**2 overflowed the emission weights from gamma ~ 1.3e154 on, with an
    # OverflowError traceback; every larger finite gamma ends as 1e100 does,
    # each row's overlap below the post-selection floor
    outcomes = []
    for gamma in ("1e100", "1e160", "1e300"):
        argv = ["decay", "--set", "post=asymptotic", "--set", f"gamma={gamma}", "--set", "n_half=5"]
        code = cli.main([*argv, "--out", str(tmp_path / "rows.csv")])
        outcomes.append((code, json.loads(capsys.readouterr().out)["row_errors"]))
    assert outcomes == [(1, [{"error": "PostSelectionNull", "rows": 101}])] * 3


def test_cli_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["spin", "--threads", "2"])
    assert excinfo.value.code == 2


def test_cli_threads_key_is_unknown(capsys):
    assert cli.main(["spin", "--set", "threads=2"]) == 2
    assert "config error: unknown keys: threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["spin", "--set", "omega=nan"], "omega"),
        (["spin", "--set", "omega=inf"], "omega"),
        (["decay", "--set", "gamma=inf"], "gamma"),
        (["decay", "--set", "gamma=nan"], "gamma"),
        (["decay", "--set", "delta_e=inf"], "delta_e"),
        (["sums", "--set", "gamma=1e-300", "--set", "k_max=10", "--set", "n_points=2"], "gamma"),
        (["sums", "--set", "delta_e=1e200", "--set", "t_end=0", "--set", "k_max=10",
          "--set", "n_points=2"], "delta_e"),
    ],
)
def test_cli_non_finite_input_exits_2(argv, field, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"config error: {field}:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spin", "--config", "no/such/scenario.cfg"], "config file not found: no/such"),
        (["spin", "--set", "omega"], "--set expects KEY=VALUE, got 'omega'"),
        (["sweep", "--set", "levels=200,100"], "levels: must be ascending"),
        (["decay", "--set", "n_half=100000"], "n_half: need 1 <= n_half <= 4000"),
        (["sweep", "--set", "levels=100,100000"], "levels: n_half: need 1 <= n_half <= 4000"),
        (["sweep", "--set", "model=spin"], "config model 'spin' conflicts with subcommand 'sweep'"),
        (["spin", "--set", "n_points=10000000000000000"],
         "n_points: need 2 <= n_points <= 1000000"),
        (["decay", "--set", "t_i=-1e308", "--set", "t_f=1e308"],
         "t_i/t_f: window t_f - t_i overflows"),
        (["spin", "--set", "t_i=-1e308", "--set", "t_f=1e308", "--set", "t_start=0",
          "--set", "t_end=1"], "t_i/t_f: window t_f - t_i overflows"),
        (["spin", "--set", "omega=1e300", "--set", "t_f=1e10", "--set", "n_points=3"],
         "omega: half-window phase 0.5 * |omega| * (t_f - t_i) exceeds 4.5e+15"),
        (["spin", "--set", "omega=1e308", "--set", "t_f=10", "--set", "n_points=3"],
         "omega: half-window phase 0.5 * |omega| * (t_f - t_i) exceeds 4.5e+15"),
        (["decay", "--set", "gamma=10", "--set", "delta_e=1e-308"],
         "gamma: (H / delta_e)^2 = gamma / (pi delta_e) overflows"),
        (["sweep", "--set", "t_i=-1", "--set", "levels=10,20"], "time grid"),
        (["sweep", "--set", "model=decay"],
         "config model 'decay' conflicts with subcommand 'sweep'"),
        (["sweep", "--set", "levels=,"], "levels: need a nonempty ascending list"),
        (["spin", "--set", "omega=inf", "--set", "t_f=0"],
         "omega: need a finite value, got inf; t_i/t_f: need finite t_i < t_f, got (0.0, 0.0)"),
        (["decay", "--set", "gamma=1e-300", "--set", "delta_e=1e-310", "--set", "n_half=2",
          "--set", "n_points=3"], "delta_e: recurrence time 2 pi / delta_e overflows"),
        (["sums", "--set", "delta_e=1e-310", "--set", "n_points=2", "--set", "k_max=10"],
         "delta_e: recurrence time 2 pi / delta_e overflows"),
    ],
)
def test_cli_rejects_bad_input_before_solving(argv, message, monkeypatch, capsys):
    def no_solve(*args):
        raise AssertionError("a spectrum was solved for invalid input")

    monkeypatch.setattr(decay, "_spectrum", no_solve)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"config error: {message}" in captured.err
    assert captured.out == ""


def test_bath_free_runs_never_import_scipy(tmp_path):
    # the library imports no scipy, and spin and sums touch no bath: a stray
    # import would cost every such process scipy's import time and memory
    code = (
        "import sys\n"
        "import weakdecay.cli as cli\n"
        f"cli.main(['spin', '--set', 'n_points=5', '--out', {str(tmp_path / 'spin.csv')!r}])\n"
        "cli.main(['sums', '--set', 'k_max=1000', '--set', 'n_points=3',"
        f" '--out', {str(tmp_path / 'sums.csv')!r}])\n"
        "print('scipy' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "spin.csv").exists() and (tmp_path / "sums.csv").exists()
    assert run.stdout.splitlines()[-1] == "False"


def test_runs_off_the_emission_route_never_import_numpy_fft(tmp_path):
    # only the emission overlap takes an FFT: spin, sums and sweep runs load
    # neither numpy.fft nor numpy.polynomial, whose imports cost a process
    # ~0.3-0.4 MB and 1-4 ms
    code = (
        "import sys\n"
        "import weakdecay.cli as cli\n"
        f"cli.main(['spin', '--set', 'n_points=5', '--out', {str(tmp_path / 'spin.csv')!r}])\n"
        "cli.main(['sums', '--set', 'k_max=1000', '--set', 'n_points=3',"
        f" '--out', {str(tmp_path / 'sums.csv')!r}])\n"
        "cli.main(['sweep', '--set', 'levels=20,40', '--set', 'n_points=5',"
        f" '--out', {str(tmp_path / 'sweep.csv')!r}])\n"
        "print([name for name in ('numpy.fft', 'numpy.polynomial') if name in sys.modules])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert all((tmp_path / f"{model}.csv").exists() for model in ("spin", "sums", "sweep"))
    assert run.stdout.splitlines()[-1] == "[]"


def test_bath_runs_never_import_scipy(tmp_path):
    # the bath spectrum takes its digamma and trigamma from numpy, so solving
    # one costs no scipy import; the check battery is imported by `check` alone
    code = (
        "import sys\n"
        "import weakdecay.cli as cli\n"
        "codes = [\n"
        "    cli.main(['decay', '--set', 'n_half=50', '--set', 'post=asymptotic',"
        " '--set', 'n_points=5', '--set', 'tolerance=0.5',"
        f" '--out', {str(tmp_path / 'decay.csv')!r}]),\n"
        "    cli.main(['sweep', '--set', 'levels=20,40', '--set', 'n_points=5',"
        f" '--set', 'tolerance=0.5', '--out', {str(tmp_path / 'sweep.csv')!r}]),\n"
        "]\n"
        "print(codes, 'scipy' in sys.modules, 'weakdecay.checks' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[0, 0] False False"


def test_cli_sums_beyond_the_term_budget_exits_2_before_summing(monkeypatch, capsys):
    def no_sum(*args, **kwargs):
        raise AssertionError("a lattice sum ran for invalid input")

    monkeypatch.setattr(sums, "phased_lorentzian_sum", no_sum)
    assert cli.main(["sums", "--set", "k_max=100000000000000"]) == 2
    captured = capsys.readouterr()
    assert "config error: k_max: n_points * k_max = 10100000000000000 terms" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        lambda out: ["spin", "--set", "n_points=3", "--out", out],
        lambda out: ["sweep", "--set", f"out={out}"],
        lambda out: ["check", "--out", out],
    ],
    ids=["spin-out", "sweep-out-key", "check-out"],
)
def test_cli_out_into_a_missing_directory_exits_2_before_any_work(
    argv, tmp_path, monkeypatch, capsys
):
    def no_work(*args):
        raise AssertionError("work ran before the output path was checked")

    monkeypatch.setattr(harness, "run_scenario", no_work)
    monkeypatch.setattr(harness, "convergence_sweep", no_work)
    monkeypatch.setattr(checks, "run_battery", no_work)
    missing = tmp_path / "missing"
    assert cli.main(argv(str(missing / "out.csv"))) == 2
    captured = capsys.readouterr()
    assert f"config error: out: directory {str(missing)!r} does not exist" in captured.err
    assert captured.out == ""
    assert not missing.exists()


@pytest.mark.parametrize("command", ["spin", "check"])
def test_cli_out_naming_a_directory_exits_2_before_any_work(command, tmp_path, monkeypatch, capsys):
    # an existing directory passed the parent-directory check: spin then ran its
    # job and check its whole battery before the write raised IsADirectoryError
    def no_work(*args):
        raise AssertionError("work ran before the output path was checked")

    monkeypatch.setattr(harness, "run_scenario", no_work)
    monkeypatch.setattr(checks, "run_battery", no_work)
    assert cli.main([command, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"config error: out: {str(tmp_path)!r} is a directory, need a file path" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, sets",
    [
        ("spin", [f"n_points={2 * harness._RENDER_ROWS + 1}"]),
        # cos(h) = 0 over the window [0, pi]: every row fails and abs_error reads none
        ("spin", [f"n_points={2 * harness._RENDER_ROWS + 1}", f"t_f={math.pi}"]),
        ("sweep", ["levels=20,40", "n_points=5"]),
    ],
    ids=["three-blocks", "failed-run", "sweep"],
)
def test_cli_streams_the_csv_that_to_csv_renders(command, sets, tmp_path, monkeypatch, capsys):
    results = []

    def recorded(run):
        def call(config):
            results.append(run(config))
            return results[-1]

        return call

    for name in ("run_scenario", "convergence_sweep"):
        monkeypatch.setattr(harness, name, recorded(getattr(harness, name)))
    out = tmp_path / "rows.csv"
    cli.main([command, *_set_args(sets), "--out", str(out)])
    (result,) = results
    assert out.read_bytes() == result.to_csv().encode("utf-8")
    if f"t_f={math.pi}" in sets:
        assert result.rows.error and out.read_text(encoding="utf-8").count(",none\n") == len(result.rows)


def test_spin_cli_memory_at_1e5_points(tmp_path, capsys):
    # whole-grid propagator stacks and the CSV's text, joined and then encoded
    # whole, peaked at 35.9 MiB here; time blocks and a CSV streamed to its
    # file, at 9.2 MiB; with the value and reference columns made free of
    # -0.0 in place, not beside copies, 6.3 MiB, most of it the grid's own columns
    out = tmp_path / "rows.csv"
    tracemalloc.start()
    try:
        assert cli.main(["spin", "--set", "n_points=100000", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text(encoding="utf-8").count("\n") == 100_001
    assert peak <= 8 * 2**20


def test_failed_spin_cli_run_at_1e5_points_reports_once(tmp_path, capsys):
    # a window of pi nulls the xplus post at every point; one {"t", "error"} dict
    # per point made a 5.28 MB summary line and a 34.7 MiB traced peak
    out = tmp_path / "rows.csv"
    tracemalloc.start()
    try:
        argv = ["spin", "--set", "n_points=100000", "--set", f"t_f={math.pi!r}", "--out", str(out)]
        assert cli.main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (line,) = capsys.readouterr().out.splitlines()
    assert len(line.encode("utf-8")) <= 2**10
    assert json.loads(line)["row_errors"] == [{"error": "PostSelectionNull", "rows": 100_000}]
    assert out.read_text(encoding="utf-8").count(",nan,nan,none\n") == 100_000
    assert peak <= 8 * 2**20


def _set_args(sets):
    return [arg for item in sets for arg in ("--set", item)]


def test_cli_decay_undecayed_end_to_end(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    sets = ["post=undecayed", "n_half=200", "delta_e=0.2", "tolerance=0.2"]
    code = cli.main(["decay", *_set_args(sets), "--out", str(out)])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["post"] == "undecayed"
    assert summary["max_abs_error"] == pytest.approx(0.139, abs=1e-3)
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == 101
    assert all(line.split(",")[3:5] == ["1.0", "0.0"] for line in lines)


# the lattice sum revives with period 2 pi / delta_e; the guard is half of it
@pytest.mark.parametrize("t_end", ["1e6", repr(math.pi / 0.05)])
def test_cli_sums_grid_beyond_recurrence_exits_1(t_end, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    sets = [f"t_end={t_end}", "k_max=1000", "n_points=3"]
    code = cli.main(["sums", *_set_args(sets), "--out", str(out)])
    summary = json.loads(capsys.readouterr().out)
    assert code == 1
    assert summary["max_abs_error"] is None
    assert summary["row_errors"] == [{"error": "BeyondRecurrence", "rows": 3}]
    text = out.read_text(encoding="utf-8")
    assert text.count(",nan,nan,none\n") == 3
    assert text.splitlines()[-1].split(",")[0] == repr(float(t_end))


def test_cli_decay_window_beyond_recurrence_is_one_record(tmp_path, capsys):
    # the default bath's guard is pi / 0.05 ~ 62.8, so a window of 70 fails every row alike
    out = tmp_path / "rows.csv"
    code = cli.main(["decay", "--set", "t_f=70", "--out", str(out)])
    summary = json.loads(capsys.readouterr().out)
    assert code == 1
    assert summary["max_abs_error"] is None
    assert summary["row_errors"] == [{"error": "BeyondRecurrence", "rows": 101}]
    assert out.read_text(encoding="utf-8").count(",nan,nan,none\n") == 101


def test_cli_sweep_with_growing_errors_exits_1(capsys):
    # at one-atom spacing and a slow decay, N = 2 fits worse than N = 1
    sets = ["levels=1,2", "delta_e=1.0", "gamma=0.3", "t_end=3", "t_f=3", "n_points=31",
            "tolerance=0.5"]
    code = cli.main(["sweep", *_set_args(sets)])
    summary = json.loads(capsys.readouterr().out)
    assert code == 1
    assert summary["trend"] == "not-decreasing"
    errors = summary["max_abs_errors"]
    assert errors[1] > errors[0] and errors[1] <= 0.5


def test_cli_sweep_with_exact_levels_exits_0(capsys):
    # a decoupled bath never decays, so every level meets the law exactly
    code = cli.main(["sweep", "--set", "gamma=0"])
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_abs_errors"] == [0.0] * 4
    assert summary["trend"] == "exact"
    assert summary["passed"] and code == 0


def test_cli_check_out_writes_one_line_per_check(monkeypatch, tmp_path, capsys):
    results = [
        checks.CheckResult("first", True, "ok", seconds=1.5),
        checks.CheckResult("second", False, "gap", xfail=True),
        checks.CheckResult("third", False, "broken"),
    ]
    monkeypatch.setattr(checks, "run_battery", lambda: results)
    out = tmp_path / "checks.txt"
    assert cli.main(["check", "--out", str(out)]) == 1
    assert out.read_text(encoding="utf-8").splitlines() == [
        "PASS  first (1.5s): ok",
        "XFAIL second (0.0s): gap",
        "FAIL  third (0.0s): broken",
    ]
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary == {"checks": 3, "passed": 1, "xfail": 1, "failed": 1}


@pytest.mark.parametrize("flag", [["--set", "n_half=5"], ["--config", "nope.cfg"]])
def test_cli_check_takes_no_config(flag, monkeypatch, capsys):
    def no_battery():
        raise AssertionError("the battery ran")

    monkeypatch.setattr(checks, "run_battery", no_battery)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["check", *flag])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_sweep_rejects_nonpositive_level(capsys):
    assert cli.main(["sweep", "--set", "levels=0,100"]) == 2
    assert "config error: levels: n_half" in capsys.readouterr().err


def _recording_sweep(seen):
    def fake_sweep(config):
        seen.append(config)
        rows = [harness.SweepRow(n, 1e-3, 0.0) for n in config.levels]
        return harness.SweepResult(rows, {"trend": "decreasing", "passed": True})

    return fake_sweep


@pytest.mark.parametrize("sets, delta_e", [([], 0.1), (["--set", "delta_e=0.2"], 0.2)])
def test_cli_sweep_defaults_to_the_acceptance_config(monkeypatch, capsys, sets, delta_e):
    seen = []
    monkeypatch.setattr(harness, "convergence_sweep", _recording_sweep(seen))
    assert cli.main(["sweep", *sets]) == 0
    (config,) = seen
    assert config.delta_e == delta_e
    assert config.levels == (250, 500, 1000, 2000)
    assert (config.t_start, config.t_end) == (0.0, 4.0)


def test_check_c4_sweeps_the_bare_sweep_config(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(harness, "convergence_sweep", _recording_sweep(seen))
    assert checks.check_exponential_law_recovery().passed
    assert cli.main(["sweep"]) == 0
    c4, bare = [
        (c.levels, c.delta_e, c.gamma, c.t_start, c.t_end, c.n_points, c.scaling, c.tolerance)
        for c in seen
    ]
    assert c4 == bare


def test_cli_sweep_writes_table(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(
        [
            "sweep",
            "--set", "levels=100,200",
            "--set", "delta_e=0.2",
            "--set", "t_end=3.0",
            "--set", "t_f=3.0",
            "--set", "n_points=31",
            "--set", "tolerance=0.2",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n_half,max_abs_error,seconds,marker"
    assert len(lines) == 3
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["trend"] in ("decreasing", "n/a")


def test_cli_sweep_at_its_defaults_converges(tmp_path, capsys, monkeypatch):
    steps = []

    def recorded(times, run=decay._progression_step):
        steps.append(run(times))
        return steps[-1]

    monkeypatch.setattr(decay, "_progression_step", recorded)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [250, 500, 1000, 2000]
    errors = [float(row[1]) for row in rows]
    assert errors == summary["max_abs_errors"]
    assert summary["trend"] == "decreasing"
    assert errors[-1] <= 0.01
    # each level's survival grid took the angle-addition route
    assert len(steps) == 4 and None not in steps
