"""The repository's one end-to-end benchmark (see ``README.md``).

    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

generates the workload's inputs from the seed, drives the workload
through the public APIs of ``repro.ingest`` / ``repro.serve`` /
``repro.net`` / ``repro.shard`` / ``repro.pipeline``, checks the outputs
against the benchmark-side oracle, prints every metric by name with its
unit and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics listed in
``BENCHMARK.json``; ``--trace 1`` reports the per-layer metrics and
writes ``results/trace-<workload>.json``. Every invocation appends one
line to ``results/history.jsonl``. Exit code 1 means a check failed.

Reads and writes stay inside the checkout: scratch directories live
under ``benchmarks/e2e/results/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _bootstrap_paths() -> None:
    """Make ``repro`` and the benchmark modules importable, here and in
    spawned worker processes (which read ``PYTHONPATH``)."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {source}/repro is missing")
    extra = [str(HERE), str(source)]
    for entry in reversed(extra):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        extra + ([inherited] if inherited else [])
    )


#: One of these runs per CPU for the length of a run. This sandbox's vCPUs
#: are descheduled by the hypervisor whenever they halt, and waking one
#: costs 1-3 ms while the host is busy — more than a whole fleet request,
#: and it comes and goes in spells of tens of seconds (fleet solo p50
#: 4.5 -> 12 ms between otherwise identical runs). A SCHED_IDLE spinner
#: only ever runs when nothing else is runnable, takes no time from the
#: program, and keeps the vCPU out of halt: the sandbox's version of
#: ``idle=poll`` / disabling C-states on a latency benchmark host. It exits
#: by itself if the benchmark process disappears.
_SPINNER = """
import os, sys
parent, cpu = int(sys.argv[1]), int(sys.argv[2])
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
os.sched_setaffinity(0, {cpu})
while os.getppid() == parent:
    for _ in range(300000):
        pass
"""


def start_spinners() -> list:
    """One idle-priority spinner per CPU this process may run on."""
    return [
        subprocess.Popen(
            [sys.executable, "-c", _SPINNER, str(os.getpid()), str(cpu)]
        )
        for cpu in sorted(os.sched_getaffinity(0))
    ]


def stop_spinners(spinners: list) -> None:
    for spinner in spinners:
        spinner.terminate()
    for spinner in spinners:
        spinner.wait()


def stolen_ticks() -> tuple:
    """(all, stolen) clock ticks of the whole machine since boot."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return sum(fields), fields[7] if len(fields) > 7 else 0


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _host() -> dict:
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def _append_history(record: dict) -> None:
    from repro.storage.atomic import atomic_write_text

    path = RESULTS / "history.jsonl"
    previous = path.read_text() if path.exists() else ""
    atomic_write_text(path, previous + json.dumps(record, sort_keys=True) + "\n")


def _declared(trace: bool) -> dict:
    """name -> unit of the metrics ``BENCHMARK.json`` lists for this mode."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = contract["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiplier on the world sizes (the smoke test uses < 1)",
    )
    args = parser.parse_args(argv)
    _bootstrap_paths()

    from layers import run_traced
    from workloads import WORKLOADS, run_plain

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]
    declared = _declared(bool(args.trace))
    RESULTS.mkdir(parents=True, exist_ok=True)
    tmp = RESULTS / f"tmp-{os.getpid()}"
    tmp.mkdir()
    began = time.perf_counter()
    ticks_before = stolen_ticks()
    spinners = start_spinners()
    try:
        if args.trace:
            outcome = run_traced(
                workload, args.seed, args.seconds, args.scale, tmp,
                RESULTS / f"trace-{workload.name}.json",
            )
        else:
            outcome = run_plain(
                workload, args.seed, args.seconds, args.scale, tmp
            )
    finally:
        stop_spinners(spinners)
        # whatever way the run ended, no process it started outlives it
        for child in multiprocessing.active_children():
            child.kill()
            child.join()
        shutil.rmtree(tmp, ignore_errors=True)
    wall = time.perf_counter() - began
    # share of the machine's CPU time the hypervisor gave to someone else
    # during the run (history only): a run that reads slow with a high
    # share was disturbed, not regressed
    ticks = stolen_ticks()
    stolen_share = (ticks[1] - ticks_before[1]) / max(
        1, ticks[0] - ticks_before[0]
    )

    problems = list(outcome.notes)
    metrics = {}
    for name, unit in declared.items():
        if name not in outcome.metrics:
            problems.append(f"metric {name} was not measured")
            continue
        value, measured_unit = outcome.metrics[name]
        if measured_unit != unit or not math.isfinite(value):
            problems.append(f"metric {name}: {value} {measured_unit}")
            continue
        metrics[name] = {"value": value, "unit": unit}
    complete = len(metrics) == len(declared)
    correct = outcome.failed == 0 and complete

    print(f"# {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} wall={wall:.1f}s stolen={stolen_share:.3f}")
    for name, entry in metrics.items():
        print(f"{name:44s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'failed_share':44s} "
          f"{outcome.failed / max(1, outcome.attempted):>16.6g} ratio "
          f"({outcome.failed} of {outcome.attempted})")
    for note in problems:
        print(f"# {note}")
    _append_history(
        {
            "commit": _commit(),
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale": args.scale,
            "host": _host(),
            "wall_s": wall,
            "stolen_share": stolen_share,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: value for name, (value, _unit) in outcome.metrics.items()
            },
            "detail": outcome.detail,
        }
    )
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, int(outcome.attempted)),
                "failed": int(outcome.failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
