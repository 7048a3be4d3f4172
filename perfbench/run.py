"""weakdecay benchmark: run a workload, check its outputs, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

A run starts the workload's process (worker.py) with BLAS pinned to one
thread and the checkout's ``src`` on ``PYTHONPATH``, after a few processes
that only set up, so set-up time is a median.  It prints every metric with
its unit, writes a result file (machine, provenance, every job) under
``perfbench/out/results`` (or ``--out-dir``), and ends with one JSON line:
``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) that
BENCHMARK.json names.  ``--compare`` reads two directories of result files
and gives one verdict per end-to-end metric and workload.  README.md in
this directory explains the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread: with the default two OpenBLAS threads a cold N=2000 eigh
# took 8.8, 9.0 and 11.3 s; with one it took 15.8, 16.1 and 16.3 s.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up samples per run (probe processes plus the workload's own process).
# A warm-up costs a dense N=2000 solve, so such workloads take two.
SETUP_SAMPLES = 7
WARM_SETUP_SAMPLES = 2
RUN_LIMIT_S = 170.0


def load_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def start_worker(spec: dict, deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline) and read its report."""
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    report = Path(spec["report"])
    report.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), repr(time.time()), json.dumps(spec)],
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=max(deadline - time.monotonic(), 1.0),
        check=True,
    )
    return json.loads(report.read_text(encoding="utf-8"))


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "blas_threads_pinned": BLAS_THREADS,
    }


def git_commit():
    """HEAD of the checkout's own .git, or None when it is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(times: list[float]):
    """Highest of p99/p95/p90 with at least ten jobs beyond it, else None."""
    n = len(times)
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return {"percentile": p, "value": statistics.quantiles(times, n=100)[p - 1], "jobs": n}
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 out_dir: Path) -> dict:
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    run_id = f"{name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = out_dir / "work" / run_id
    work.mkdir(parents=True, exist_ok=True)
    spans_file = out_dir / "spans" / f"{run_id}.npz"
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    base = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "smoke": smoke, "checkout": str(ROOT), "workdir": str(work),
            "spans": str(spans_file), "probe": False}
    try:
        probes = []
        if not trace:  # a traced run reports per-layer metrics only
            samples = SETUP_SAMPLES if workload.warmup is None else WARM_SETUP_SAMPLES
            for i in range(samples - 1):
                spec = {**base, "probe": True, "report": str(work / f"probe{i}.json")}
                probes.append(start_worker(spec, deadline))
        main = start_worker({**base, "report": str(work / "main.json")}, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checked = [r["warmup"] for r in (*probes, main)] + main["jobs"] + [main["repeat"]]
    checked = [job for job in checked if job]
    problems = [p for job in checked for p in job["problems"]]
    attempted = len(checked)
    failed = sum(1 for job in checked if job["problems"])

    timed = [j for j in main["jobs"] if not j["traced"]]
    times = [j["seconds"] for j in timed]
    setup = [p["setup_s"] for p in probes] + [main["setup_s"]]
    end_to_end = {
        "setup_s": statistics.median(setup),
        "job_s": statistics.median(times),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    errors = [j["max_abs_error"] for j in main["jobs"] if not math.isnan(j["max_abs_error"])]
    extra = {
        "rows_per_s": statistics.median(j["rows"] / j["seconds"] for j in timed),
        "job_s_tail": tail(times),
        "jobs_timed": len(times),
        "setup_samples": setup,
        "max_abs_error": max(errors) if errors else None,
        "error_ratio": failed / attempted,
    }
    return {
        "run_id": run_id,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": end_to_end,
        "extra": extra,
        "layers": main.get("layers", {}),
        "absent_hooks": main.get("absent_hooks", []),
        "spans_file": str(spans_file) if trace else None,
        "machine": main["machine"],
        "provenance": provenance(seed),
        "warmup": main["warmup"],
        "jobs": main["jobs"],
    }


def final_metrics(result: dict, definition: dict) -> dict:
    """The metrics BENCHMARK.json names for this mode, each with its unit."""
    if result["trace"]:
        source, entries = result["layers"], definition["per_layer"]
    else:
        source, entries = result["end_to_end"], definition["end_to_end"]
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in entries}


def print_result(result: dict, metrics: dict) -> None:
    w = result["workload"]
    for name, m in metrics.items():
        print(f"{w:14s} {name:34s} {m['value']:.6g} {m['unit']}")
    extra = result["extra"]
    if not result["trace"]:
        print(f"{w:14s} {'job_s (jobs timed)':34s} {extra['jobs_timed']}")
        print(f"{w:14s} {'rows_per_s':34s} {extra['rows_per_s']:.6g} 1/s")
        t = extra["job_s_tail"]
        note = (f"p{t['percentile']} = {t['value']:.6g} s over {t['jobs']} jobs" if t
                else f"not reported: {extra['jobs_timed']} jobs leave fewer than 10 beyond p90")
        print(f"{w:14s} {'job_s_tail':34s} {note}")
        print(f"{w:14s} {'max_abs_error':34s} {extra['max_abs_error']}")
        print(f"{w:14s} {'error_ratio':34s} {result['failed']}/{result['attempted']} "
              f"= {extra['error_ratio']:.6g}")
    if result["absent_hooks"]:
        print(f"{w:14s} absent hooks: {', '.join(result['absent_hooks'])}")
    for problem in result["problems"]:
        print(f"{w:14s} FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long sizes of every job")
    parser.add_argument("--out-dir", type=Path, default=HERE / "out")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare

        return compare(*args.compare, load_definition())
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "weakdecay" / "__init__.py").is_file():
        print(f"no weakdecay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    definition = load_definition()
    seconds = definition["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = args.out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke,
                                  args.out_dir)
        except (subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
            print(f"{name}: run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        metrics = final_metrics(result, definition)
        (results_dir / f"{result['run_id']}.json").write_text(json.dumps(result, indent=1))
        print_result(result, metrics)
        results.append((result, metrics))

    line = {
        "correct": all(r["correct"] for r, _ in results),
        "attempted": sum(r["attempted"] for r, _ in results),
        "failed": sum(r["failed"] for r, _ in results),
        "metrics": (results[0][1] if len(results) == 1 else
                    {f"{r['workload']}.{k}": v for r, m in results for k, v in m.items()}),
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
