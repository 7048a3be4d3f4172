"""Every default output against its pinned copy under ``tests/pins`` (see ``pinned.py``)."""

import json

import numpy as np
import pytest

import pinned
from pinned import PINS, RUNS, change, outputs

# Largest move of a ``sums`` value_re or abs_error cell, in ulps of the row's
# value_re: measured 2 between one and two BLAS threads (22 of 101 rows move).
SUMS_ULPS = 4
SUMS_MOVING = ("value_re", "abs_error")


def _pinned(name: str) -> tuple[str, str]:
    return tuple((PINS / f"{name}.{kind}").read_text(encoding="utf-8") for kind in ("csv", "json"))


@pytest.mark.parametrize("name", [name for name in RUNS if name != "sums"])
def test_default_output_is_byte_identical_to_its_pin(name):
    csv, summary = outputs(name)
    pinned_csv, pinned_summary = _pinned(name)
    assert summary == pinned_summary
    assert csv == pinned_csv


def _columns(csv: str) -> dict[str, list[str]]:
    header, *rows = csv.splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


def test_default_sums_output_is_within_its_pinned_bound():
    csv, summary = outputs("sums")
    pinned_csv, pinned_summary = _pinned("sums")
    got, pinned = _columns(csv), _columns(pinned_csv)
    assert list(got) == list(pinned) and len(csv.splitlines()) == len(pinned_csv.splitlines())
    for column in set(pinned) - set(SUMS_MOVING):
        assert got[column] == pinned[column], column
    bound = SUMS_ULPS * np.spacing(np.abs(np.array(pinned["value_re"], dtype=float)))
    for column in SUMS_MOVING:
        move = np.abs(np.array(got[column], dtype=float) - np.array(pinned[column], dtype=float))
        assert np.all(move <= bound), f"{column} moved by up to {np.max(move / bound) * SUMS_ULPS:.1f} ulps"
    got_summary, pinned_summary = json.loads(summary), json.loads(pinned_summary)
    move = abs(got_summary.pop("max_abs_error") - pinned_summary.pop("max_abs_error"))
    assert got_summary == pinned_summary
    assert move <= np.max(bound)


def test_the_rewrite_script_states_each_move():
    assert change("t,x\n0,1.5\n", "t,x\n0,1.5\n") == "unchanged"
    assert change("t,x\n0,1.5\n", "t,x\n0,1.25\n") == "1 of 5 cells differ, largest move 0.25"
    assert change('{"post":"a"}', '{"post":"b"}') == "1 of 4 cells differ"


def test_the_check_writes_nothing_and_fails_on_a_move(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pinned, "RUNS", {"spin": RUNS["spin"]})
    monkeypatch.setattr(pinned, "PINS", tmp_path)
    csv, summary = _pinned("spin")
    (tmp_path / "spin.json").write_text(summary, encoding="utf-8")
    (tmp_path / "spin.csv").write_text(csv, encoding="utf-8")
    assert pinned.main(["--check"]) == 0
    assert capsys.readouterr().out == "spin.csv: unchanged\nspin.json: unchanged\n"
    moved = summary.replace('"model":"spin"', '"model":"spun"')
    assert moved != summary
    (tmp_path / "spin.json").write_text(moved, encoding="utf-8")
    assert pinned.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines()[1].startswith("spin.json: 1 of ")
    assert (tmp_path / "spin.json").read_text(encoding="utf-8") == moved  # written by nobody
    assert sorted(path.name for path in tmp_path.iterdir()) == ["spin.csv", "spin.json"]
