"""The default outputs pinned under ``tests/pins``, and the script that rewrites them.

Each run is a CLI default, ``weakdecay MODEL [--set post=WORD]``, regenerated
in-process.  Its CSV and its one-line JSON summary are kept as ``NAME.csv``
and ``NAME.json``; the sweep's CSV leaves out its ``seconds`` column, a wall
time.  The ``sums`` cells move by up to two ulps between one and two BLAS
threads, so its pins are taken at one thread and compared within a bound.

After a change meant to move a pinned cell, rewrite the files and state the
largest move; for each file the script first prints ``unchanged``, or how many
cells differ and the largest absolute move of a number among them:

    PYTHONPATH=src python tests/pinned.py

With ``--check`` it prints the same lines but writes nothing, and exits 1 if
any pin would move, so a move can be stated before the pins are rewritten.
"""

from __future__ import annotations

import argparse
import os
import re
from pathlib import Path

if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

from weakdecay import harness

PINS = Path(__file__).resolve().parent / "pins"

# name -> (model, config overrides)
RUNS = {
    "spin": ("spin", {}),
    "decay_photon1": ("decay", {"post": "photon:1"}),
    "decay_photon-3": ("decay", {"post": "photon:-3"}),
    "decay_asymptotic": ("decay", {"post": "asymptotic"}),
    "decay_undecayed": ("decay", {"post": "undecayed"}),
    "sweep": ("sweep", {}),
    "sums": ("sums", {}),
}


def outputs(name: str) -> tuple[str, str]:
    """The CSV and JSON summary (with its newline) that the CLI writes for run ``name``."""
    model, overrides = RUNS[name]
    config = harness.build_config({**overrides, "model": model})
    run = harness.convergence_sweep if model == "sweep" else harness.run_scenario
    result = run(config)
    csv = result.to_csv()
    if model == "sweep":
        csv = "".join(
            ",".join(cell for i, cell in enumerate(line.split(",")) if i != 2) + "\n"
            for line in csv.splitlines()
        )
    return csv, harness.summary_to_json(result.summary) + "\n"


def change(old: str, new: str) -> str:
    """``unchanged``, or how many cells of ``old`` differ in ``new`` and the largest move of a number."""
    if old == new:
        return "unchanged"
    before, after = (re.split(r"[,:\n\[\]{}]", text) for text in (old, new))
    if len(before) != len(after):
        return f"{len(before)} -> {len(after)} cells"
    moved = [(a, b) for a, b in zip(before, after) if a != b]
    moves = []
    for a, b in moved:
        try:
            moves.append(abs(float(b) - float(a)))
        except ValueError:  # not a number
            pass
    return f"{len(moved)} of {len(before)} cells differ" + (f", largest move {max(moves):.3g}" if moves else "")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite the pinned default outputs, or check them.")
    parser.add_argument("--check", action="store_true", help="write nothing; exit 1 if any pin would move")
    check = parser.parse_args(argv).check
    moved = False
    for name in RUNS:
        for kind, text in zip(("csv", "json"), outputs(name)):
            path = PINS / f"{name}.{kind}"
            old = path.read_text(encoding="utf-8") if path.exists() else None
            print(f"{path.name}: {'new' if old is None else change(old, text)}")
            moved |= old != text
            if not check:
                PINS.mkdir(exist_ok=True)
                path.write_text(text, encoding="utf-8")
    return int(check and moved)


if __name__ == "__main__":
    raise SystemExit(main())
