"""Workload process: set up, run one client's jobs in a closed loop, check them, report.

run.py starts this file as a child process with the BLAS thread count pinned
in its environment and ``src`` on ``PYTHONPATH``:

    python3 perfbench/worker.py SPAWN_TIME SPEC_JSON

``SPAWN_TIME`` is the parent's ``time.time()`` just before the start, so
set-up time covers interpreter start, imports and the workload's warm-up.
``SPEC_JSON`` names the workload, seed, run length, trace and smoke flags,
the report path and a scratch directory for the jobs' CSV files.  With
``probe`` set the process stops once set up and reports only its set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import SWEEP_HEADER, WORKLOADS


def run_job(cli, workload, job, out_path: Path) -> dict:
    """One closed-loop request: ``cli.main`` in process, then the output checks."""
    stdout = io.StringIO()
    problems: list[str] = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(job.argv(str(out_path)))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception as exc:  # a failed job is counted, not fatal
        code = None
        problems.append(f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    if code != 0 and not problems:
        problems.append(f"exit code {code}")
    lines = stdout.getvalue().strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        summary = {}
        problems.append("no JSON summary on stdout")
    if summary.get("row_errors"):
        problems.append(f"row errors: {summary['row_errors'][:3]}")
    csv = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
    max_abs_error = float("nan")
    if csv:
        found, max_abs_error = workload.verify(job, csv)
        problems += found
    else:
        problems.append("no CSV written")
    with contextlib.suppress(FileNotFoundError):
        out_path.unlink()
    return {
        "job": job,
        "sets": job.sets,
        "seconds": seconds,
        "rows": workload.rows(job),
        "max_abs_error": max_abs_error,
        "problems": problems,
        "csv": csv,
    }


def _strip(result):
    """A job result as recorded in the report: without the CSV text and Job object."""
    if result is None:
        return None
    return {k: v for k, v in result.items() if k not in ("csv", "job")}


def deterministic_part(csv: str) -> str:
    """The CSV without wall-clock columns (the sweep table's ``seconds``)."""
    if not csv.startswith(SWEEP_HEADER):
        return csv
    return "\n".join(
        ",".join(c for i, c in enumerate(line.split(",")) if i != 2) for line in csv.splitlines()
    )


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    ram_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ram_gb": round(ram_gb, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    spawn_time = float(sys.argv[1])
    spec = json.loads(sys.argv[2])
    workload = WORKLOADS[spec["workload"]]

    from weakdecay import cli

    src = Path(spec["checkout"], "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"weakdecay imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()

    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    out_path = workdir / f"job-{os.getpid()}.csv"
    jobs = workload.jobs(spec["seed"], spec["smoke"])
    warmup = None
    if workload.warmup is not None:
        with tracer.job_span(0) if tracer else contextlib.nullcontext():
            warmup = run_job(cli, workload, next(jobs), out_path)
    setup_s = time.time() - spawn_time
    report: dict = {"setup_s": setup_s}
    if spec["probe"]:
        report["warmup"] = _strip(warmup)
        Path(spec["report"]).write_text(json.dumps(report))
        return 0

    # Closed loop, one client: the next job starts when the previous ends.
    # A traced run alternates untraced and traced jobs so that the tracing
    # overhead is measured within the run.
    done = []
    min_jobs = 2 if tracer else 1
    max_jobs = max(min_jobs, workload.max_jobs) if workload.max_jobs else None
    loop_start = time.perf_counter()
    while len(done) < min_jobs or (
        time.perf_counter() - loop_start < spec["seconds"]
        and (max_jobs is None or len(done) < max_jobs)
    ):
        job_id = len(done) + 1
        traced = tracer is not None and job_id % 2 == 0
        with tracer.job_span(job_id) if traced else contextlib.nullcontext():
            result = run_job(cli, workload, next(jobs), out_path)
        result["traced"] = traced
        if done:
            result["csv"] = ""
        done.append(result)

    # Repeat the run's first job (the warm-up, if any): its CSV must come
    # back byte for byte.  Only that CSV is kept, so that the benchmark's own
    # memory stays out of peak_rss_mb.
    first = warmup or done[0]
    repeat = run_job(cli, workload, first["job"], out_path)
    same = deterministic_part(repeat["csv"]) == deterministic_part(first["csv"])
    if not repeat["problems"] and not same:
        repeat["problems"].append("repeated config gave a different CSV")

    report.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine(),
        warmup=_strip(warmup),
        jobs=[_strip(r) for r in done],
        repeat=_strip(repeat),
    )
    if tracer:
        traced_ids = [i + 1 for i, r in enumerate(done) if r["traced"]]
        layers = tracer.layer_metrics(traced_ids)
        plain = [r["seconds"] for r in done if not r["traced"]]
        traced = [r["seconds"] for r in done if r["traced"]]
        layers["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
        setup_layers = tracer.layer_metrics([0]) if warmup else {}
        layers["setup.decay.first_touch.calls"] = setup_layers.get("decay.first_touch.calls", 0)
        layers["setup.decay.first_touch.s"] = setup_layers.get("decay.first_touch.s", 0.0)
        report["layers"] = layers
        report["absent_hooks"] = tracer.absent
        tracer.save(spec["spans"])
    Path(spec["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
