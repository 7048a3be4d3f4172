"""Command-line harness.

Usage:
    weakdecay spin|decay|sums [--config FILE] [--set key=value ...] [--out FILE]
    weakdecay sweep           [--config FILE] [--set key=value ...] [--out FILE]
    weakdecay check           [--out FILE]

Scenario rows go to the CSV given by --out (or the config's ``out`` key);
a single-line JSON summary always goes to stdout.  Exit codes: 0 all
tolerances met, 1 tolerance breach or numerical failure inside a scenario
grid (reported as row errors), 2 invalid input, 3 numerical failure outside
a scenario grid (for example in the sweep).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import checks, harness
from .errors import ConfigInvalid, WeakDecayError

_SCENARIO_COMMANDS = ("spin", "decay", "sums")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weakdecay", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_SCENARIO_COMMANDS, "sweep", "check"):
        p = sub.add_parser(name)
        if name != "check":
            p.add_argument("--config", help="flat key = value config file")
            p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                           help="override a config key (repeatable)")
        p.add_argument("--out", help="output CSV path")
    return parser


def _gather_raw(args, model: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigInvalid([f"config file not found: {path}"])
        raw.update(harness.parse_config_text(path.read_text(encoding="utf-8")))
    for item in args.set:
        if "=" not in item:
            raise ConfigInvalid([f"--set expects KEY=VALUE, got {item!r}"])
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    if args.out:
        raw["out"] = args.out
    raw.setdefault("model", model)
    if raw["model"] != model:
        raise ConfigInvalid(
            [f"config model {raw['model']!r} conflicts with subcommand {args.command!r}"]
        )
    return raw


def _run_scenario_command(command: str, args) -> int:
    config = harness.build_config(_gather_raw(args, command))
    result = harness.run_scenario(config)
    if config.out:
        Path(config.out).write_text(harness.rows_to_csv(result.rows), encoding="utf-8")
    print(harness.summary_to_json(result.summary))
    return 0 if result.passed else 1


def _run_sweep(args) -> int:
    raw = _gather_raw(args, "decay")
    # the acceptance battery's sweep (check C4): at the global default
    # delta_e = 0.05 the N = 2000 error sits above the 0.01 tolerance
    raw.setdefault("levels", ",".join(map(str, checks.SWEEP_LEVELS)))
    raw.setdefault("delta_e", str(checks.SWEEP_DELTA_E))
    raw.setdefault("t_end", "4.0")
    raw.setdefault("t_f", raw.get("t_end", "4.0"))
    config = harness.build_config(raw)
    result = harness.convergence_sweep(config, config.levels)
    if config.out:
        Path(config.out).write_text(result.to_csv(), encoding="utf-8")
    usable = [r.max_abs_error for r in result.rows if r.max_abs_error is not None]
    summary = {
        "levels": list(config.levels),
        "max_abs_errors": usable,
        "markers": {r.n_half: r.marker for r in result.rows if r.marker},
        "trend": result.trend,
        "tolerance": config.tolerance,
        "passed": bool(
            usable and usable[-1] <= config.tolerance and result.trend != "not-decreasing"
        ),
    }
    print(harness.summary_to_json(summary))
    return 0 if summary["passed"] else 1


def _run_check(args) -> int:
    if problems := harness.out_problems(args.out):
        raise ConfigInvalid(problems)
    results = checks.run_battery()
    lines = []
    for r in results:
        lines.append(f"{r.status:5s} {r.name} ({r.seconds:.1f}s): {r.detail}")
        print(lines[-1])
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = {
        "checks": len(results),
        "passed": sum(r.passed for r in results),
        "xfail": sum((not r.passed) and r.xfail for r in results),
        "failed": sum((not r.passed) and not r.xfail for r in results),
    }
    print(harness.summary_to_json(summary))
    return 0 if summary["failed"] == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in _SCENARIO_COMMANDS:
            return _run_scenario_command(args.command, args)
        if args.command == "sweep":
            return _run_sweep(args)
        return _run_check(args)
    except ConfigInvalid as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except WeakDecayError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
