"""Corpus-evaluation benchmark for optitheta.

    python3 bench/run.py --workload m3-otm --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each workload builds seeded synthetic corpora in the M3 group mix
and runs ``optitheta evaluate`` on them through ``optitheta.cli.main``.

``--trace 0`` measures the end-to-end metrics with ``--workers 2``: set-up
time (median of three cold set-ups in child processes), cells per second
and CPU ms per cell over all the run's evaluate calls, peak RSS,
and the accuracy of the run (sMAPE and MASE of the ``All`` rows, averaged
over the workload's methods). ``--trace 1`` runs corpus 0 once untraced with
2 workers, once untraced with 1 worker and once traced with 1 worker, and
reports the per-layer metrics of ``bench/tracing.py``.

Every call is checked cell by cell (``bench/checks.py``), and a fixed lock
corpus is compared with the reference outputs in ``bench/ref/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--write-reference`` rewrites
``bench/ref/`` from the current code instead of measuring. See
``bench/README.md`` for the workloads and what each metric should move.
"""

import os

# one BLAS/OpenMP thread per process: the harness plus two pool workers must
# not use more threads than the two cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REF_DIR = BENCH_DIR / "ref"
WORK_DIR = ROOT / ".bench_work"

M3_MIX = {"Yearly": 645, "Quarterly": 756, "Monthly": 1428, "Other": 174}
M3_SERIES = sum(M3_MIX.values())
OTM_METHODS = tuple(f"otm-{a}" for a in "abcdefgh")
LOCK_SEED = 20150311
SETUP_REPEATS = 3
CHUNKED_CALLS = 5
MIN_CALLS = 3
MIN_SERIES = 8
WORKERS = 2
# ms per series of the seed code, measured on 2 cores: the ROADMAP baseline
# that `pipeline.<method>.cell_ms_p50` is printed beside
ROADMAP_MS = {
    "theta": 0.44,
    "otm-a": 2.2,
    "otm-d": 31.5,
    "holt-winters": 7.3,
    "damped": 192.0,
    "seasonal-damped": 235.0,
}
CRITERION_12_MINUTES = 60.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cpu_ms_per_cell": "ms",
    "peak_rss_mb": "MB",
    "smape_mean": "%",
    "mase_mean": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """Methods plus the figures that size a run.

    ``ms_per_series`` is the wall time per series at 2 workers measured on
    the seed code; it only sizes the corpus, so that the calls of a run take
    about ``--seconds`` in total. A workload with ``series`` evaluates that
    many series in every call; otherwise each of ``CHUNKED_CALLS`` calls
    evaluates its own, differently seeded corpus, which puts more distinct
    series behind the accuracy metrics.
    """

    methods: tuple[str, ...]
    ms_per_series: float
    lock_series: int
    series: int | None = None


WORKLOADS = {
    "m3-otm": Workload(("theta", *OTM_METHODS), ms_per_series=94.0, lock_series=24),
    "es-benchmarks": Workload(
        ("naive", "naive2", "ses", "holt", "holt-winters", "damped", "seasonal-damped"),
        ms_per_series=300.0,
        lock_series=8,
    ),
    "m3-cheap": Workload(
        ("theta", "naive", "naive2", "ses"), ms_per_series=1.45, lock_series=100, series=M3_SERIES
    ),
}
ALL_METHODS = tuple(dict.fromkeys(m for w in WORKLOADS.values() for m in w.methods))


@dataclass(frozen=True)
class Call:
    """One timed ``optitheta evaluate`` call."""

    wall: float
    cpu: float
    out_dir: Path


def m3_counts(series: int) -> dict[str, int]:
    """Split ``series`` over the groups in the M3 mix (largest remainder)."""
    quotas = {g: series * v / M3_SERIES for g, v in M3_MIX.items()}
    counts = {g: int(q) for g, q in quotas.items()}
    by_remainder = sorted(M3_MIX, key=lambda g: counts[g] - quotas[g])
    for g in by_remainder[: series - sum(counts.values())]:
        counts[g] += 1
    return counts


def plan_run(workload: Workload, seconds: int) -> tuple[int, int, int]:
    """(series per call, distinct corpora, calls) for a run of ``seconds``."""
    if workload.series is not None:
        calls = max(MIN_CALLS, round(seconds * 1000 / (workload.series * workload.ms_per_series)))
        return workload.series, 1, calls
    series = max(MIN_SERIES, round(seconds * 1000 / (CHUNKED_CALLS * workload.ms_per_series)))
    return series, CHUNKED_CALLS, CHUNKED_CALLS


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "start_method": multiprocessing.get_start_method(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def cold_setup(files: list[dict]) -> float:
    """Import optitheta, generate and write ``files`` in a fresh interpreter."""
    plan = json.dumps({"src": str(SRC), "files": files})
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_corpus.py"), plan],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.splitlines()[-1])


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (the pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest ``ru_maxrss`` of this process and its reaped children."""
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def evaluate(main, corpus: Path, out_dir: Path, methods, workers: int) -> Call:
    """Run ``optitheta evaluate`` once through ``main``, timing wall and CPU."""
    argv = [
        "evaluate", "--data", str(corpus), "--methods", ",".join(methods),
        "--cost", "se", "--extrapolator", "ses",
        "--workers", str(workers), "--out-dir", str(out_dir),
    ]  # fmt: skip
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        cpu = cpu_seconds()
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu
    if stderr.getvalue():
        sys.stderr.write(stderr.getvalue())
    if code != 0:
        raise RuntimeError(f"optitheta evaluate exited with {code} on {corpus}")
    return Call(wall=wall, cpu=cpu, out_dir=out_dir)


def accuracy(out_dirs: list[Path]) -> tuple[float, float]:
    """All-row sMAPE and MASE over every corpus, averaged over the methods."""
    sums: dict[str, list[float]] = {}
    for out_dir in out_dirs:
        lines = (out_dir / "aggregate.csv").read_text(encoding="utf-8").splitlines()[1:]
        for line in lines:
            method, group, _, n_smape, n_mase, _, smape_mean, mase_mean, _ = line.split(",")
            if group != "All":
                continue
            acc = sums.setdefault(method, [0.0, 0, 0.0, 0])
            if smape_mean:
                acc[0] += int(n_smape) * float(smape_mean)
                acc[1] += int(n_smape)
            if mase_mean:
                acc[2] += int(n_mase) * float(mase_mean)
                acc[3] += int(n_mase)
    smape = statistics.fmean(a[0] / a[1] for a in sums.values())
    mase = statistics.fmean(a[2] / a[3] for a in sums.values())
    return smape, mase


def lock_corpus(workload_name: str, path: Path) -> None:
    import corpus
    from optitheta import save_dataset

    counts = m3_counts(WORKLOADS[workload_name].lock_series)
    save_dataset(corpus.generate([LOCK_SEED], counts), path)


def write_reference(workload_name: str) -> None:
    """Rewrite the committed reference outputs of one workload's lock corpus."""
    from optitheta.cli import main

    work = WORK_DIR / f"reference-{workload_name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    lock_corpus(workload_name, work / "lock.csv")
    call = evaluate(main, work / "lock.csv", work / "out", WORKLOADS[workload_name].methods, WORKERS)
    target = REF_DIR / workload_name
    target.mkdir(parents=True, exist_ok=True)
    for name in (checks.FORECASTS_FILE, checks.SCORES_FILE):
        shutil.copyfile(call.out_dir / name, target / name)
    print(f"wrote {target}")


class Ledger:
    """Attempted and failed cells across every check of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, cells: int, failed: set) -> None:
        self.attempted += cells
        self.failed += len(failed)
        if failed:
            sample = ", ".join(f"{sid}/{m}" for sid, m in sorted(failed)[:5])
            self.problems.append(f"{label}: {len(failed)} failed cells ({sample})")


def check_call(ledger: Ledger, label: str, entries, methods, call: Call, first: Call | None) -> None:
    failed = checks.check_cells(entries, methods, call.out_dir)
    if first is not None:
        # the same corpus again, maybe with another worker count or traced
        failed |= checks.compare_reference(call.out_dir, first.out_dir)
    ledger.record(label, len(entries) * len(methods), failed)


def check_lock(ledger: Ledger, workload_name: str, work: Path, main) -> None:
    methods = WORKLOADS[workload_name].methods
    lock = work / "lock.csv"
    lock_corpus(workload_name, lock)
    call = evaluate(main, lock, work / "lock-out", methods, WORKERS)
    entries = checks.read_corpus(lock)
    failed = checks.check_cells(entries, methods, call.out_dir)
    failed |= checks.compare_reference(call.out_dir, REF_DIR / workload_name)
    ledger.record("lock corpus vs bench/ref", len(entries) * len(methods), failed)


def measure_end_to_end(workload: Workload, corpora: list[Path], calls: int, ledger: Ledger, main):
    entries = [checks.read_corpus(path) for path in corpora]
    done: list[Call] = []
    for i in range(calls):
        chunk = i % len(corpora)
        call = evaluate(main, corpora[chunk], corpora[chunk].parent / f"out-{i}", workload.methods, WORKERS)
        first = done[chunk] if i >= len(corpora) else None
        check_call(ledger, f"call {i}", entries[chunk], workload.methods, call, first)
        done.append(call)
        print(f"call {i}: corpus {chunk}, wall {call.wall:.3f} s, cpu {call.cpu:.3f} s")
    # Totals over every call of the run, not the median call: per-call times
    # on a shared 2-core box wander by +-20% over 30-60 s, and a sum over
    # ~25 s of calls is steadier than the median call (bench/README.md). With
    # one call per corpus, a median would also time one corpus alone.
    cells = sum(len(entries[i % len(corpora)]) for i in range(calls)) * len(workload.methods)
    smape, mase = accuracy([c.out_dir for c in done[: len(corpora)]])
    return {
        "cells_per_s": cells / sum(c.wall for c in done),
        "cpu_ms_per_cell": sum(c.cpu for c in done) * 1e3 / cells,
        "peak_rss_mb": peak_rss_mb(),
        "smape_mean": smape,
        "mase_mean": mase,
    }


def measure_layers(workload: Workload, corpus: Path, ledger: Ledger, main, work: Path):
    entries = checks.read_corpus(corpus)
    w2 = evaluate(main, corpus, work / "out-w2", workload.methods, WORKERS)
    check_call(ledger, "untraced workers=2", entries, workload.methods, w2, None)
    w1 = evaluate(main, corpus, work / "out-w1", workload.methods, 1)
    check_call(ledger, "untraced workers=1", entries, workload.methods, w1, w2)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = evaluate(tracer.span("cli.main", main), corpus, work / "out-traced", workload.methods, 1)
    check_call(ledger, "traced workers=1", entries, workload.methods, traced, w2)
    for hook in tracer.missing_hooks:
        print(f"trace: hook target missing, its layer reads zero: {hook}", file=sys.stderr)
    tracer.write(work / "spans.csv")

    metrics = tracing.layer_metrics(tracer, traced.wall, ALL_METHODS)
    metrics["dataset.mb_read"] = corpus.stat().st_size / 1e6
    metrics["runner.mb_written"] = sum(p.stat().st_size for p in traced.out_dir.iterdir()) / 1e6
    metrics["runner.busy_ratio"] = w2.cpu / (WORKERS * w2.wall)
    metrics["runner.speedup_2w"] = w1.wall / w2.wall
    metrics["trace.overhead_ratio"] = traced.wall / w1.wall
    self_total = traced.wall - metrics["trace.unattributed_s"]
    print(f"traced wall {traced.wall:.4f} s = self times {self_total:.4f} s "
          f"+ unattributed {metrics['trace.unattributed_s']:.6f} s; "
          f"untraced workers=1 {w1.wall:.4f} s, workers=2 {w2.wall:.4f} s")
    print_cross_check(workload, metrics, tracer, w2.wall / len(entries))
    return metrics


def print_cross_check(workload: Workload, metrics: dict, tracer, w2_seconds_per_series: float) -> None:
    """Cell medians beside the ROADMAP baseline, and the criterion-12 projection."""
    for method in workload.methods:
        if method in ROADMAP_MS:
            p50 = metrics[f"pipeline.{method}.cell_ms_p50"]
            print(f"cross-check {method}: cell_ms_p50 {p50:.2f} ms (traced, "
                  f"{metrics['pipeline.cells_per_method']} cells) vs ROADMAP "
                  f"{ROADMAP_MS[method]:.2f} ms/series, ratio {p50 / ROADMAP_MS[method]:.2f}")
    method_seconds: dict[str, float] = {}
    for name, start, end in zip(tracer.names, tracer.start, tracer.end):
        if name.startswith("pipeline."):
            method = name[len("pipeline."):]
            method_seconds[method] = method_seconds.get(method, 0.0) + end - start
    otm_seconds = sum(method_seconds.get(m, 0.0) for m in OTM_METHODS)
    if otm_seconds:
        share = otm_seconds / sum(method_seconds.values())
        minutes = w2_seconds_per_series * share * M3_SERIES / 60.0
        print(f"projection: otm-a..h on {M3_SERIES} series at workers={WORKERS} takes "
              f"{minutes:.2f} min (otm share of traced cell time {share:.3f}); "
              f"criterion 12 allows {CRITERION_12_MINUTES:.0f} min")


def main_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite bench/ref/ from the current code (all workloads "
                             "unless --workload is given) and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = main_args(argv)
    if not (SRC / "optitheta" / "__init__.py").is_file():
        print(f"bench: no optitheta package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        for name in [args.workload] if args.workload else sorted(WORKLOADS):
            write_reference(name)
        return 0
    workload = WORKLOADS[args.workload]
    series, n_corpora, calls = plan_run(workload, args.seconds)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # one working directory, emptied by every run, keeps the disk use of many
    # runs at that of one; the per-run records go to results/
    work = WORK_DIR / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = [
        {"path": str(work / f"corpus-{c}.csv"), "seed": [args.seed, c], "counts": m3_counts(series)}
        for c in range(n_corpora)
    ]
    corpora = [Path(f["path"]) for f in files]
    repeats = 1 if args.trace else SETUP_REPEATS
    setup_times = [cold_setup(files) for _ in range(repeats)]
    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}: {len(corpora)} corpora of {series} series "
          f"({m3_counts(series)}), {calls} calls, methods {','.join(workload.methods)}")

    from optitheta.cli import main as optitheta_main

    ledger = Ledger()
    check_lock(ledger, args.workload, work, optitheta_main)
    if args.trace:
        metrics = measure_layers(workload, corpora[0], ledger, optitheta_main, work)
    else:
        metrics = {"setup_s": statistics.median(setup_times)}
        metrics.update(measure_end_to_end(workload, corpora, calls, ledger, optitheta_main))
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    failed_ratio = ledger.failed / ledger.attempted
    if not args.trace:
        for name, value in metrics.items():
            print(f"{name}: {value:.6g} {END_TO_END_UNITS[name]}")
        print(f"failed_ratio: {failed_ratio:.6g} ratio ({ledger.failed} of {ledger.attempted} cells)")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS.get(name) or layer_unit(name)}
            for name, value in metrics.items()
        },
    }
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, env=env, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, failed_ratio=failed_ratio, setup_runs=setup_times)
    (results / f"{label}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("ns_per_update"):
        return "ns"
    if name.endswith("mb_read") or name.endswith("mb_written"):
        return "MB"
    if name.endswith(("_ratio", "_share", "_2w")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
