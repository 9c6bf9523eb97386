"""Benchmark of the ultralip CLI chain: construction command, then verify.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  The seed makes the workload's instances (see workloads.py), and
every command goes through `ultralip.cli.main(argv)` in this process,
reading and writing JSON files as a user would.  Times are CPU time
(`time.process_time`).  Whole rounds of the workload's pool run until
`--seconds` of CPU time have passed; every output is checked
(checks.py).  With `--trace 1` the run instead replays the pool through
the library's public functions and reports the per-layer metrics
(tracing.py).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

On a shared machine the CPU time of identical work drifts by 10-20%
over minutes.  A gauge, the median CPU time of a fixed pure-Python loop
run between jobs, tracks that drift, and the end-to-end CPU figures are
divided by it: they read as on a machine where the loop takes 1 ms.  The
raw figures are printed on a notes line.

The process re-executes itself once with a fixed PYTHONHASHSEED, so that
set and dict orders, and with them the field call counts, repeat exactly.
Scratch files go to `.perfbench_run/` under the checkout and are removed
at exit; the traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
HASH_SEED = "0"
SETUP_REPEATS = 3

# (name, unit, better) of every end-to-end metric, in print order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("extend_ms_p50", "ms", "lower"),
    ("extend_ms_p90", "ms", "lower"),
    ("verify_ms_p50", "ms", "lower"),
    ("verify_ms_p90", "ms", "lower"),
    ("instances_per_s", "1/s", "higher"),
    ("ok_share", "share", "higher"),
    ("verdict_pass_share", "share", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


# the CPU figures scaled by the machine gauge
CPU_TIMES = ("setup_s", "extend_ms_p50", "extend_ms_p90", "verify_ms_p50",
             "verify_ms_p90")
CPU_RATES = ("instances_per_s",)
GAUGE_READINGS = 3  # gauge loops after each job


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def reexec_with_hash_seed(script: str) -> None:
    """Replace this process by `script` under the fixed PYTHONHASHSEED,
    unless it already runs under it."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
                   PYTHONDONTWRITEBYTECODE="1")
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(script), *sys.argv[1:]], env)


def import_package() -> float:
    """Import the package from the checkout; return the CPU seconds taken."""
    sys.path.insert(0, SRC)
    t0 = time.process_time()
    import ultralip  # noqa: F401
    import ultralip.cli  # noqa: F401
    cpu = time.process_time() - t0
    if os.path.dirname(os.path.abspath(ultralip.__file__)) \
            != os.path.join(SRC, "ultralip"):
        raise ImportError(f"ultralip was imported from {ultralip.__file__}, "
                          f"not from {SRC}")
    return cpu


def _sorted_cache_size():
    """Entries of the module-global cache that leaks one entry per
    evaluated cell point; None once the cache is gone."""
    from ultralip import extension
    cache = getattr(extension, "_SORTED_ITEMS_CACHE", None)
    return None if cache is None else len(cache)


def normalize(raw: dict, gauge_ms: float) -> dict:
    """Scale CPU figures to a machine on which the gauge loop takes 1 ms."""
    out = dict(raw)
    for name in CPU_TIMES:
        out[name] = raw[name] / gauge_ms
    for name in CPU_RATES:
        out[name] = raw[name] * gauge_ms
    return out


def _gauge_ms() -> float:
    """CPU time of a fixed pure-Python loop: how fast the machine runs now."""
    t0 = time.process_time()
    s = Fraction(0)
    for i in range(400):
        s += Fraction(i % 7, i % 13 + 1)
    return (time.process_time() - t0) * 1e3


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(pool, args, reference, workdir) -> tuple[dict, float, int, int, list[str]]:
    """Run whole rounds of the pool; return (raw metrics, gauge ms,
    attempted, failed, notes)."""
    import checks

    recorded = reference["reports"].get(args.workload, {}).get(str(args.seed), {})
    results = []
    cpu0, wall0 = time.process_time(), time.monotonic()
    rounds = 0
    gauge = []
    while True:
        for job in pool[rounds % len(pool)]:
            results.append(checks.run_job(job, workdir, reference, recorded))
            gauge.extend(_gauge_ms() for _ in range(GAUGE_READINGS))
        rounds += 1
        # stop at the round boundary nearest to the time budget, so every
        # round counted is whole and the mix of kinds stays fixed
        cpu = time.process_time() - cpu0
        if cpu + cpu / rounds / 2 >= args.seconds \
                or time.monotonic() - wall0 >= 2 * args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    commands = [c for job_results in results for c in job_results]
    timed = [c for c in commands if c.cpu_s is not None and not c.refused]
    extend = [c.cpu_s * 1e3 for c in timed if c.command != "verify"]
    verify = [c.cpu_s * 1e3 for c in timed if c.command == "verify"]
    attempted = len(commands)
    failed = sum(c.failed for c in commands)
    refused = sum(c.refused for c in commands)
    verdicts = sum(c.verdicts for c in commands)
    verdict_fails = sum(c.verdict_fails for c in commands)
    chains = len(results) - refused
    metrics = {
        "extend_ms_p50": statistics.median(extend),
        "extend_ms_p90": _percentile(extend, 90),
        "verify_ms_p50": statistics.median(verify),
        "verify_ms_p90": _percentile(verify, 90),
        "instances_per_s": chains / ((sum(extend) + sum(verify)) / 1e3),
        "ok_share": 1 - failed / attempted,
        "verdict_pass_share": 1 - verdict_fails / verdicts,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"rounds {rounds}, instances {len(results)}, timed construction "
        f"commands {len(extend)}, timed verify commands {len(verify)}, "
        f"measured CPU {time.process_time() - cpu0:.1f} s",
        f"failed_share {failed / attempted:.6f} ({failed}/{attempted} commands)",
        f"verdict_fail_share {verdict_fails / verdicts:.6f} "
        f"({verdict_fails}/{verdicts} verdicts)",
        f"expected refusals (exit 2) {refused}",
        f"p-divisible-count warnings {sum(c.pdiv_warnings for c in commands)}",
        f"extension._SORTED_ITEMS_CACHE entries {_sorted_cache_size()}",
    ]
    return metrics, statistics.median(gauge), attempted, failed, notes


def traced(pool, args, reference) -> tuple[dict, int, int, list[str]]:
    """The traced replay; return (per-layer metrics, attempted, failed,
    notes) and leave the spans in RUN_DIR."""
    import checks
    import tracing

    metrics, dump, skipped, failing = tracing.run_traced(pool, args.seed,
                                                         args.seconds)
    out = os.path.join(RUN_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(out, "w") as fh:
        json.dump(dump, fh)
    jobs = {job.id: job for rnd in pool for job in rnd}
    refused = [jid for jid in skipped
               if checks.matches(reference["expected_refusals"], jobs[jid],
                                 task=jobs[jid].task)]
    failures = [f"{jid}: {e}" for jid, e in skipped.items()
                if jid not in refused]
    failures += [f"{job.id}: unexpected failing verdict {name}"
                 for job, name in failing
                 if not checks.matches(reference["expected_failures"], job,
                                       verdict=name)]
    for line in failures:
        print(f"FAILED replay {line}", file=sys.stderr)
    notes = [f"spans written to {os.path.relpath(out, ROOT)}",
             f"rounds {dump['rounds']}, expected refusals {len(refused)}, "
             f"failing verdicts {len(failing)}"]
    attempted = sum(len(r) for r in pool[:dump["rounds"]])
    return metrics, attempted, len(failures), notes


def _check_names(names: list[str], key: str) -> None:
    """Fail when the printed metrics drift from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as fh:
        declared = [m["name"] for m in json.load(fh)[key]]
    if declared != names:
        raise SystemExit(f"metric names differ from BENCHMARK.json {key}: "
                         f"{sorted(set(declared) ^ set(names))}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ultralip", "cli.py")):
        print(f"no ultralip sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    reexec_with_hash_seed(__file__)
    import_s = import_package()
    import checks
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{workloads.WORKLOADS}", file=sys.stderr)
        return 2
    reference = checks.load_reference()
    if args.trace:
        import tracing
        table = tracing.LAYER_METRICS
    else:
        table = END_TO_END
    _check_names([name for name, _, _ in table],
                 "per_layer" if args.trace else "end_to_end")

    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.process_time()
            pool = workloads.build_pool(args.workload, args.seed, workdir)
            setups.append(time.process_time() - t0)
        if args.trace:
            metrics, attempted, failed, notes = traced(pool, args, reference)
        else:
            raw, gauge, attempted, failed, notes = measure(pool, args, reference,
                                                           workdir)
            raw["setup_s"] = import_s + statistics.median(setups)
            metrics = normalize(raw, gauge)
            notes.append(f"gauge {gauge:.4f} ms; raw CPU figures: " + ", ".join(
                f"{name} {raw[name]:.4f}" for name in CPU_TIMES + CPU_RATES))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"import {import_s:.4f} s, setups {[round(s, 4) for s in setups]} s")
    for note in notes:
        print(note)
    for name, unit, _ in table:
        print(f"{name:36s} {metrics[name]:14.6f} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit, _ in table}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
