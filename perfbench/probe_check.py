"""Does the program's memory state move the speed probe?

    python3 perfbench/probe_check.py [--mb 128] [--seconds 30]

The speed samples (speed.py) run inside the process they measure, right
after interrupting it.  If a program that holds a large heap, or walks a
large working set, made the probe slower, it would read faster after
scaling.  This script measures that effect.  It keeps a ballast of about
MB megabytes of Python objects alive for the whole run and alternates two
jobs of the same code, 20 ms each, with a probe after each: one job reads
random objects of a small list that stays in the CPU caches, the other
reads random objects of the ballast, so the probe starts with caches and
TLB filled by another working set.  Alternating every probe cancels the
machine's drift.  It prints, for the probe and for the same kernel timed
without its warm-up, the ratio of the probe times after the two jobs: the
median of the per-pair ratios with its quartiles, and the ratio of means.
"""

import argparse
import gc
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402

JOB_S = 0.02


def job(objects, rng):
    """Read random objects of `objects` for JOB_S seconds."""
    n, total = len(objects), 0
    until = perf_counter() + JOB_S
    while perf_counter() < until:
        for _ in range(200):
            total += objects[rng.randrange(n)][0]
    return total


def unwarmed_probe():
    """The probe's kernel timed without the warm-up."""
    gc.disable()
    try:
        start = perf_counter()
        speed._kernel()
        return perf_counter() - start
    finally:
        gc.enable()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--mb", type=int, default=128, help="ballast size in megabytes (default 128)")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    rng = random.Random(0)
    # a one-element list and its int take about 120 bytes
    ballast = [[i] for i in range(args.mb * 1024 * 1024 // 120)]
    small = ballast[:256]
    pairs = {"probe": [], "unwarmed": []}  # (after the small job, after the ballast job)
    start = perf_counter()
    while perf_counter() - start < args.seconds:
        for name, probe in (("probe", speed.probe), ("unwarmed", unwarmed_probe)):
            job(small, rng)
            after_small = probe()
            job(ballast, rng)
            pairs[name].append((after_small, probe()))

    print(f"ballast {len(ballast)} objects (~{args.mb} MB), {len(pairs['probe'])} pairs per probe")
    for name, rows in pairs.items():
        q1, q2, q3 = statistics.quantiles([b / a for a, b in rows], n=4)
        mean_a = statistics.fmean(a for a, _ in rows)
        mean_b = statistics.fmean(b for _, b in rows)
        print(f"  {name:8s} after small {1e3 * mean_a:.4f} ms, after ballast {1e3 * mean_b:.4f} ms;"
              f" ballast/small per pair: median {q2:.4f} (quartiles {q1:.3f} .. {q3:.3f}),"
              f" ratio of means {mean_b / mean_a:.4f}")


if __name__ == "__main__":
    main()
