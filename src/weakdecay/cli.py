"""Command-line harness.

Usage:
    weakdecay spin|decay|sums|sweep [--config FILE] [--set key=value ...] [--out FILE]
    weakdecay check                 [--out FILE]

Each model command runs the harness model of its name: a scenario's rows
(a sweep's levels) go to the CSV given by --out (or the config's ``out``
key); a single-line JSON summary always goes to stdout.  A config's
``model`` must match the command.  Exit codes: 0 all tolerances met, 1
tolerance breach or numerical failure inside a scenario grid (reported
once, in ``row_errors``), 2 invalid input, 3 numerical failure outside a
scenario grid.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .errors import ConfigInvalid, WeakDecayError


def _run_model(args) -> int:
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
    model = raw.get("model", args.command)
    if model != args.command:
        raise ConfigInvalid([f"config model {model!r} conflicts with subcommand {args.command!r}"])
    config = harness.build_config({**raw, "model": model})
    # looked up on the module at each call, so a patched runner is the one run
    run = harness.convergence_sweep if config.model == "sweep" else harness.run_scenario
    result = run(config)
    if config.out:  # written block by block, so the whole text never exists
        with open(config.out, "w", encoding="utf-8") as file:
            result.to_csv(file)
    print(harness.summary_to_json(result.summary))
    return 0 if result.passed else 1


def _run_check(args) -> int:
    # imported here, so model commands do not load the battery
    from . import checks

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
    parser = argparse.ArgumentParser(prog="weakdecay", description=__doc__)
    parser.add_argument("command", choices=("spin", "decay", "sums", "sweep", "check"))
    parser.add_argument("--config", help="flat key = value config file (not with check)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key, repeatable (not with check)")
    parser.add_argument("--out", help="output CSV path")
    args = parser.parse_args(argv)
    if args.command == "check" and (args.config is not None or args.set):
        parser.error("unrecognized arguments: check takes no --config or --set")
    try:
        return _run_check(args) if args.command == "check" else _run_model(args)
    except ConfigInvalid as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except WeakDecayError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
