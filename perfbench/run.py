"""Benchmark of the revca classify pipeline.

Run from the root of a checkout that holds `src/revca`:

    python3 perfbench/run.py --workload family_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

One caller in one process drives a closed loop: each op is one library call,
issued when the previous one returned.  A workload is one seeded pass of
inputs; the pass repeats, on freshly built rule objects, until `--seconds`
have elapsed and at least MIN_PASSES passes ran.  Each op's latency is its
median over the passes, which a slow spell of the shared host moves only
when it covers half of them; an op's fastest pass would instead catch the
rare moments the host runs fastest, which vary from run to run.
Throughput is the number of ops in a pass over the sum of those latencies.
Set-up, building a pass's inputs from the seed, is timed before every pass
and reported as the median of those samples.

With `--trace 0` nothing is wrapped and the end-to-end metrics are
reported; with `--trace 1` the layer boundaries are wrapped (see spans.py)
for half the run time, the per-layer metrics are reported, and the same
passes are then replayed untraced to measure the tracing overhead.
Verdicts are checked after the timed loop (see verdicts.py); an op that
raised or failed a check counts as failed.  `--all` runs every workload in a
process of its own, so that each peak RSS belongs to one workload, and
prints the end-to-end metrics of each.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it record
the environment and the details of the run, which are also written to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 5  # per set-up sample, at least; more until SETUP_MIN_SECONDS
SETUP_MIN_SECONDS = 0.1
MIN_PASSES = 4
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def _import_library() -> None:
    """Put the checkout's `src` first on the path; refuse to run without it."""
    src = Path.cwd() / "src"
    if not (src / "revca" / "__init__.py").is_file():
        sys.exit(f"error: no src/revca under {Path.cwd()}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import revca

    if Path(revca.__file__).resolve().parent != (src / "revca").resolve():
        sys.exit(f"error: imported revca from {revca.__file__}, not from {src}")


def _blas() -> dict:
    """BLAS name, version and live thread count (thread count only for OpenBLAS)."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return out
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "machine": platform.machine(),
    }


def _setup(build, seed: int):
    """Build the pass at least SETUP_REPEATS times and for SETUP_MIN_SECONDS;
    return the last build and the median build time."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        ops = build(seed)
        times.append(time.perf_counter() - start)
    return ops, statistics.median(times)


def _timed_loop(build, seed: int, seconds: float, min_passes: int, recorder=None, passes=None):
    """Repeat the pass until `seconds` elapsed and `min_passes` ran (or exactly
    `passes` times).  Before each pass its inputs are built afresh, outside the
    op timing, which also takes one set-up sample per pass across the run.

    Only the first pass's ops and results are kept, for the verdict checks; a
    later op counts as failed when its result differs from the first pass's,
    so memory, and with it peak RSS, does not grow with the number of passes.
    Errors are keyed by the op's index over the whole run."""
    first, results, latencies, errors, setups = [], [], [], {}, []
    attempted = 0
    start = time.perf_counter()
    while True:
        ops, setup = _setup(build, seed)
        setups.append(setup)
        gc.collect()  # every pass starts from the same collector state
        row = []
        for k, op in enumerate(ops):
            if recorder is not None:
                recorder.op = attempted
            t0 = time.perf_counter()
            try:
                result = op()
            except Exception as exc:  # a failed op is counted, not fatal
                result = None
                errors[attempted] = f"{type(exc).__name__}: {exc}"
            row.append(time.perf_counter() - t0)
            if not latencies:
                first.append(op)
                results.append(result)
            elif result != results[k]:
                errors.setdefault(attempted, "result differs from the first pass")
            attempted += 1
        latencies.append(row)
        count = len(latencies)
        if passes is not None:
            if count == passes:
                break
        elif count >= min_passes and time.perf_counter() - start >= seconds:
            break
    return first, results, latencies, errors, setups, attempted


def _tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest of TAIL_PERCENTILES
    that has at least TAIL_BEYOND samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(math.ceil(pct / 100 * n), 1)
        if n - rank >= TAIL_BEYOND:
            break
    return ordered[rank - 1], pct, n - rank


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import spans
    import verdicts
    from workloads import WORKLOADS

    build = WORKLOADS[name]
    recorder = None
    if trace:
        recorder = spans.Recorder()
        recorder.install()
    try:
        # no warm-up pass: the cold first pass is one of at least MIN_PASSES
        # samples of each op, and the median passes over it
        ops, results, latencies, errors, setups, attempted = _timed_loop(
            build, seed, seconds / 2 if trace else seconds, 1 if trace else MIN_PASSES, recorder
        )
    finally:
        if recorder is not None:
            recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # a later pass's op either returned the first pass's result, and so has
    # its verdict, or differed from it and is in `errors` already
    bad = verdicts.check(ops, results)
    failed = sorted(set(errors) | {k + p * len(ops) for k in bad for p in range(len(latencies))})
    busy = sum(map(sum, latencies))
    columns = list(zip(*latencies))
    per_op = [statistics.median(column) for column in columns]
    # a pass with enough ops to reach p90 gives one latency sample per op; a
    # short pass gives one per op and group, the passes being dealt round
    # robin into MIN_PASSES groups.  Either way the sample count, and so the
    # tail percentile, is fixed by the workload and does not move with the
    # library's speed.
    groups = 1 if len(per_op) >= 10 * TAIL_BEYOND else min(MIN_PASSES, len(latencies))
    samples = [statistics.median(column[g::groups]) for g in range(groups) for column in columns]
    tail, tail_pct, beyond = _tail(samples)
    details = {
        "workload": name,
        "seconds_in_ops": busy,
        "setup_samples_s": setups,
        "passes": len(latencies),
        "ops_per_pass": len(ops),
        "attempted": attempted,
        "failed": len(failed),
        "failed_frac": len(failed) / attempted,
        "setup_repeats_min": SETUP_REPEATS,
        "latency_samples": len(samples),
        "passes_per_sample_min": len(latencies) // groups,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "op_groups": dict(Counter(op.group for op in ops)),
        "errors": dict(list(errors.items())[:5]),
        "check_failures": dict(list(bad.items())[:5]),
    }
    if trace:
        # the same passes, on freshly built rule objects, without any wrapping
        untraced = _timed_loop(build, seed, 0, 1, passes=len(latencies))[2]
        untraced_busy = sum(map(sum, untraced))
        overhead = busy / untraced_busy - 1.0
        metrics = {
            k: (v, spans.PER_LAYER_UNITS[k])
            for k, v in recorder.metrics(attempted, overhead).items()
        }
        details["untraced_seconds_in_same_ops"] = untraced_busy
        details["untraced_targets"] = recorder.untraced
        details["counter_hook_errors"] = recorder.hook_errors
        details["spans"] = len(recorder.name_col)
        self_times = {layer: metrics[f"self_s.{layer}"][0] for layer in spans.LAYERS}
        details["largest_self_time_layer"] = max(self_times, key=self_times.get)
        OUT.mkdir(exist_ok=True)
        recorder.save(OUT / f"{name}-seed{seed}.spans.npz")
    else:
        metrics = {
            "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
            "latency_ms.p50": (statistics.median(samples) * 1e3, "ms"),
            "latency_ms.tail": (tail * 1e3, "ms"),
            "ok_frac": (1.0 - len(failed) / attempted, "fraction"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }


def run_all(seed: int, seconds: int) -> int:
    """Each workload in its own process; print every end-to-end metric by name and unit."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        details = json.loads(lines[-2].removeprefix("details: "))
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        print(f"  {'failed_frac':<16} {result['failed'] / result['attempted']:.6g} fraction")
        for key, m in result["metrics"].items():
            print(f"  {key:<16} {m['value']:.6g} {m['unit']}")
        print(
            f"  tail is p{details['tail_percentile']:g} of {details['latency_samples']} samples, "
            f"{details['tail_samples_beyond']} beyond it"
        )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("family_sweep", "tree_panel", "oracle_panel", "brute_oracle"))
    parser.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # one caller and no extra threads: BLAS must not spread a product over
    # the cores, which on a shared host also makes timings far noisier
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _import_library()
    if args.all:
        return run_all(args.seed, args.seconds)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    details = result.pop("details")
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    print("details: " + json.dumps(details, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    record = {"environment": env, "details": details, **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
