"""holoflow benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload extract_ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload, one process each

Each workload runs in one process as a closed loop with one client: the
next job starts only after the previous one has finished and been checked.
Jobs come in rounds of fixed composition drawn from the seed (see gen.py);
a run repeats rounds until ``--seconds`` have passed, so every run measures
the same mix.  Every job is checked against the benchmark's own reference
(checks.py) and has a deadline; a job that raises, misses its deadline or
fails its check counts as failed and the run goes on.

On a shared 2-vCPU host the CPU speed drifts by 15-25% over seconds to
minutes, which is more than a run-to-run bound can absorb.  So the timed metrics are reported
at a fixed reference speed: a short piece of program-independent work
(:func:`reference_s`) is timed between jobs, every ``REF_EVERY_S`` seconds,
and each job's wall time is multiplied by ``REF_NOMINAL_S`` over the median
of the reference samples around it.  ``setup_s`` is scaled the same way
by reference samples taken between its imports.  The run is pinned to one
CPU, which its import subprocesses inherit, so that the reference and the
work it scales share a CPU.  The raw medians go to stderr.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time with the tracer installed (tracing.py), then the same rounds without
it, and prints the per-layer metrics and the tracing overhead.  The spans
are written to ``.perfbench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: set before numpy is imported, here and in children
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: per-job deadline; the largest job takes about 1.3 s
DEADLINE_S = 10
#: past the time budget plus this, a run stops mid-round (only if jobs hang)
HARD_STOP_S = 30.0
#: fresh-process imports per run; the median is reported as setup_s
SETUP_REPEATS = 9
#: untimed jobs run before timing starts
WARMUP_JOBS = 3

#: the reference work's time at nominal speed, a fixed constant
REF_NOMINAL_S = 0.010
#: seconds between reference samples, which are taken between jobs
REF_EVERY_S = 0.25
#: reference samples on each side of a job that set its speed
REF_WINDOW = 4

SETUP_CODE = ("import time; t = time.perf_counter(); import holoflow; "
              "print(time.perf_counter() - t)")

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "fraction",
    "accuracy_margin_dec": "decades",
}

_SELF = "s/job"
_CALLS = "count/job"
PER_LAYER = {
    "extract.extract_coefficients.self_s": _SELF,
    "extract.sampled_sup.self_s": _SELF,
    "extract.nodes": _CALLS,
    "extract.level_nodes": _CALLS,
    "extract.oracle_calls": _CALLS,
    "extract.oracle_points": _CALLS,
    "extract.oracle_retries": _CALLS,
    "extract.vector_ok_ratio": "fraction",
    "extract.errors": _CALLS,
    "flow.level_grid.self_s": _SELF,
    "flow.level_grid.calls": _CALLS,
    "flow.levels": _CALLS,
    "flow.integral_curve.calls": _CALLS,
    "flow.classify_spectrum.calls": _CALLS,
    "flow.classify_spectrum.self_s": _SELF,
    "flow.errors": _CALLS,
    "wirtinger.dbar_fd.calls": _CALLS,
    "wirtinger.dbar_fd_component.calls": _CALLS,
    "series.eval_taylor.calls": _CALLS,
    "series.eval_taylor.self_s": _SELF,
    "series.taylor_remainder_check.self_s": _SELF,
    "series.errors": _CALLS,
    "forelli.forelli_pipeline.self_s": _SELF,
    "forelli.f_holomorphy_check.self_s": _SELF,
    "forelli.antiholomorphic_vanishing.self_s": _SELF,
    "forelli.reconstruct.self_s": _SELF,
    "forelli.oracle_calls": _CALLS,
    "forelli.inconclusive": _CALLS,
    "forelli.errors": _CALLS,
    "asympt.pushforward.self_s": _SELF,
    "asympt.tail_bound_check.self_s": _SELF,
    "asympt.max_principle_bound.self_s": _SELF,
    "asympt.expansion_points": _CALLS,
    "asympt.errors": _CALLS,
    "counterex.counterexample_suite.self_s": _SELF,
    "counterex.choose_branch_exponent.self_s": _SELF,
    "counterex.phi_resonant.calls": _CALLS,
    "counterex.phi_spiral.calls": _CALLS,
    "counterex.errors": _CALLS,
    "cli.run_scenario.self_s": _SELF,
    "cli.report_bytes": "B/job",
    "reports.write_decay_csv.self_s": _SELF,
    "trace.overhead_s": "s",
    "trace.jobs": "count",
}


class JobTimeout(BaseException):
    """Raised by the deadline alarm.

    A BaseException, so the program's own ``except Exception`` handlers (the
    curve check turns oracle errors into an inconclusive verdict) cannot
    swallow it.
    """


def _on_alarm(_signum, _frame):
    raise JobTimeout()


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_program():
    """Import holoflow from this checkout's ``src``; exit if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import holoflow
    except ImportError as exc:
        log(f"error: cannot import holoflow from {src}: {exc}")
        raise SystemExit(2)
    if Path(holoflow.__file__).resolve().parent.parent != src:
        log(f"error: holoflow imported from {holoflow.__file__}, not from {src}")
        raise SystemExit(2)


def reference_s() -> float:
    """Wall time of a fixed piece of work that does not touch holoflow."""
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    a = np.linspace(0.0, 1.0, 2000)
    for _ in range(150):
        a = np.sin(a) + 0.5
    return perf_counter() - start


def measure_setup() -> float:
    """Median time to import holoflow in a fresh interpreter, at reference speed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times, refs = [], [reference_s()]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
        refs.append(reference_s())
    raw = statistics.median(times)
    log(f"setup: raw median {raw:.6g} s, reference median {statistics.median(refs):.6g} s")
    return raw * REF_NOMINAL_S / statistics.median(refs)


class Record(NamedTuple):
    seconds: float
    completed: bool
    outcome: object
    started: float = 0.0


def run_one(kind: str, spec: dict, jobdir: Path, tracer=None) -> Record:
    """Run, time and check one job; never raises for a job failure."""
    import checks
    import jobs

    shutil.rmtree(jobdir, ignore_errors=True)
    start = perf_counter()
    try:
        signal.alarm(DEADLINE_S)
        try:
            result = jobs.run_job(kind, spec, jobdir)
        finally:
            signal.alarm(0)
    except JobTimeout:
        return Record(perf_counter() - start, False,
                      checks.Outcome(False, f"missed the {DEADLINE_S} s deadline"))
    except Exception as exc:  # a job that raises is a failure; the run goes on
        return Record(perf_counter() - start, False, checks.Outcome(False, f"raised {exc!r}"))
    seconds = perf_counter() - start
    if tracer is not None and kind == "scenario":
        tracer.counts["cli.report_bytes"] += sum(
            p.stat().st_size for p in result["out"].iterdir() if p.is_file())
    try:
        outcome = checks.check_job(kind, spec, result)
    except Exception as exc:  # a malformed result fails its check
        outcome = checks.Outcome(False, f"check raised {exc!r}")
    return Record(seconds, True, outcome)


def run_rounds(workload: str, seed: int, workdir: Path, seconds: float, *,
               rounds: int | None = None, tracer=None) -> tuple[list, int, list]:
    """Run whole rounds until ``seconds`` have passed, or ``rounds`` are done.

    Returns the records, the number of rounds begun and the reference
    samples as (time taken, duration), the first before the first job and
    the last after the last job.
    """
    import gen

    records: list = []
    refs = [(perf_counter(), reference_s())]
    start = perf_counter()
    index = 0
    while (index < rounds) if rounds is not None else (perf_counter() - start < seconds):
        for kind, spec in gen.round_jobs(workload, seed, index):
            if perf_counter() - start > seconds + HARD_STOP_S:
                log("error: jobs are hanging; stopping mid-round")
                refs.append((perf_counter(), reference_s()))
                return records, index, refs
            if tracer is not None:
                tracer.job = len(records)
            started = perf_counter()
            rec = run_one(kind, spec, workdir / "job", tracer)._replace(started=started)
            if not rec.outcome.ok:
                log(f"FAILED round {index} {kind}: {rec.outcome.note}")
            records.append(rec)
            if perf_counter() - refs[-1][0] >= REF_EVERY_S:
                refs.append((perf_counter(), reference_s()))
        index += 1
    refs.append((perf_counter(), reference_s()))
    return records, index, refs


def at_reference_speed(records: list, refs: list) -> list:
    """Job times scaled to the speed at which reference_s takes REF_NOMINAL_S.

    A job's speed is the median of the REF_WINDOW samples before it and the
    REF_WINDOW after it.
    """
    times = [t for t, _d in refs]
    scaled = []
    for rec in records:
        i = bisect.bisect(times, rec.started)
        window = [d for _t, d in refs[max(0, i - REF_WINDOW): i + REF_WINDOW]]
        scaled.append(rec._replace(seconds=rec.seconds * REF_NOMINAL_S
                                   / statistics.median(window)))
    return scaled


def percentile(values, q: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def end_to_end(records: list, setup_s: float) -> dict:
    done = [r.seconds for r in records if r.completed]
    margins = [r.outcome.margin for r in records if r.outcome.margin is not None]
    total = sum(r.seconds for r in records)
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(done) / total if total > 0 else 0.0,
        "job_s_p50": percentile(done, 50) if done else 0.0,
        "job_s_p90": percentile(done, 90) if done else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": sum(r.outcome.ok for r in records) / len(records),
        "accuracy_margin_dec": min(margins) if margins else 0.0,
    }


def per_layer(tracer, jobs: int, overhead_s: float) -> dict:
    import tracing

    selfs = tracing.self_times(tracer.spans)
    selfs.update(tracer.times)
    calls: dict = {}
    for rec in tracer.spans:
        calls[f"{rec[3]}.calls"] = calls.get(f"{rec[3]}.calls", 0) + 1
    counts = dict(tracer.counts, **calls)
    attempts = counts.get("extract.vector_attempts", 0)
    special = {
        # 0 when no vector call was made
        "extract.vector_ok_ratio": (attempts - counts.get("extract.oracle_retries", 0))
        / attempts if attempts else 0.0,
        "trace.overhead_s": overhead_s,
        "trace.jobs": jobs,
    }
    values = {}
    for name in PER_LAYER:
        if name in special:
            values[name] = special[name]
        elif name.endswith(".self_s"):
            values[name] = selfs.get(name[:-len(".self_s")], 0.0) / jobs
        else:
            values[name] = counts.get(name, 0) / jobs
    return values


def run_workload(args) -> dict:
    import_program()
    import gen
    import tracing

    signal.signal(signal.SIGALRM, _on_alarm)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = measure_setup()
        warmup = [run_one(kind, spec, workdir / "job")
                  for kind, spec in gen.round_jobs(args.workload, args.seed,
                                                   gen.WARMUP_ROUND)[:WARMUP_JOBS]]
        if args.trace:
            tracer = tracing.Tracer()
            with tracer:
                traced, rounds, _ = run_rounds(args.workload, args.seed, workdir,
                                               args.seconds / 2, tracer=tracer)
            plain, _, _ = run_rounds(args.workload, args.seed, workdir, args.seconds / 2,
                                     rounds=rounds)
            overhead = sum(r.seconds for r in traced) - sum(r.seconds for r in plain)
            metrics = per_layer(tracer, len(traced), overhead)
            units = PER_LAYER
            tracer.dump(OUT_DIR / f"trace-{args.workload}-{args.seed}.json",
                        workload=args.workload, seed=args.seed, jobs=len(traced))
            records = traced + plain
        else:
            records, rounds, refs = run_rounds(args.workload, args.seed, workdir,
                                               args.seconds)
            raw = [r.seconds for r in records if r.completed] or [math.nan]
            log(f"raw: median job {statistics.median(raw):.6g} s; {len(refs)} reference "
                f"samples, median {statistics.median(d for _t, d in refs):.6g} s")
            metrics = end_to_end(at_reference_speed(records, refs), setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    everything = warmup + records
    failed = sum(not r.outcome.ok for r in everything)
    done = sum(r.completed for r in records)
    log(f"{args.workload} seed {args.seed}: {rounds} rounds, {len(records)} jobs "
        f"({done} completed, percentiles over n={done}), {failed} failed")
    for name, value in metrics.items():
        log(f"  {name:42s} {value:14.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": len(everything), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    import gen

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    for name, metric in combined["metrics"].items():
        print(f"{name:58s} {metric['value']:14.6g} {metric['unit']}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="extract_ladder, forelli_ladder, scenario_mix or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import gen

    if args.workload != "all" and args.workload not in gen.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    for metric in result["metrics"].values():
        if not math.isfinite(metric["value"]):
            log("error: non-finite metric")
            return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
