"""The default outputs pinned under ``tests/pins``, and the script that rewrites them.

Each run is a CLI default, ``weakdecay MODEL [--set post=WORD]``, regenerated
in-process.  Its CSV and its one-line JSON summary are kept as ``NAME.csv``
and ``NAME.json``; the sweep's CSV leaves out its ``seconds`` column, a wall
time.  The ``sums`` cells move by up to two ulps between one and two BLAS
threads, so its pins are taken at one thread and compared within a bound.

After a change meant to move a pinned cell, rewrite the files and state the
largest move:

    PYTHONPATH=src python tests/pinned.py
"""

from __future__ import annotations

import os
import sys
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


def main() -> int:
    PINS.mkdir(exist_ok=True)
    for name in RUNS:
        csv, summary = outputs(name)
        (PINS / f"{name}.csv").write_text(csv, encoding="utf-8")
        (PINS / f"{name}.json").write_text(summary, encoding="utf-8")
        print(f"wrote {name}.csv and {name}.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
