"""The projrep benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a fresh
interpreter (`loop.py`), so every pass starts with empty caches, as one
`projrep` command-line call does.  Untraced passes repeat while another one
still fits in S seconds; the first always runs.  With --trace 1 the run makes
one untraced and one traced pass and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
every metric with its unit, and the full record (context, task list,
per-task latencies and digests) goes to `perfbench/out/`.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import loop
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "projrep"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0

# set-up time: SETUP_PAIRS fresh interpreters that only set up, each right
# after one that only imports loop.REFERENCE_IMPORT; setup_s is the mean of
# the middle half of the ratios of the two times, in units of
# REFERENCE_IMPORT_S (about that import's time on a 2-core x86 virtual
# machine, so setup_s reads like seconds there)
SETUP_PAIRS = 16
REFERENCE_IMPORT_S = 0.25
TIME_LIMIT_S = 170  # every child process ends within this many seconds of the start
TAIL_BEYOND = 10  # the tail percentile is the highest with this many tasks beyond it

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# "one process and no threads": numpy's BLAS starts no thread pool
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def run_child(args, out, extra, deadline):
    """Run loop.py once and return its result document."""
    cmd = [
        sys.executable, str(HERE / "loop.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--out", str(out), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"pass did not end within {TIME_LIMIT_S} s of the start") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"pass exited with code {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(Path(out).read_text())


def source_digest():
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(str(path.relative_to(PACKAGE)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def context(args, tasks):
    versions = {}
    for dist in ("numpy", "scipy", "sympy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "tasks": [workloads.task_key(t) for t in tasks],
    }


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density.  One order
    statistic jumps when the latencies have a gap at its rank, as a task
    list of a few cost classes does; this estimate moves smoothly."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta) if 0 < t < 1 else 0.0

    def simpson(lo, hi, steps=16):
        h = (hi - lo) / steps
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        return (density(lo) + density(hi) + inner) * h / 3

    weights = [simpson(i / n, (i + 1) / n) for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def middle_mean(values):
    """Mean of the values left after dropping the lowest and highest quarter."""
    x = sorted(values)
    k = len(x) // 4
    return statistics.fmean(x[k:len(x) - k])


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND tasks
    beyond it, or of the maximum when there are too few tasks."""
    n = len(latencies)
    if n <= TAIL_BEYOND + 1:
        return max(latencies), 100.0
    p = (n - TAIL_BEYOND) / n
    return hd_quantile(latencies, p), 100.0 * p


def find_problems(passes, traced, reference):
    """(pass, task key, reason) of every failed task; a pass is a list of task records.

    Besides its own check, a task fails when its output differs from the
    recorded digest or from the first untraced pass.
    """
    first = {rec["key"]: rec["sha256"] for rec in passes[0]}
    labelled = list(enumerate(passes)) + ([("traced", traced)] if traced is not None else [])
    problems = []
    for where, records in labelled:
        for rec in records:
            why = rec["problem"]
            if why is None and reference.get(rec["key"], rec["sha256"]) != rec["sha256"]:
                why = "output differs from the recorded digest"
            if why is None and first[rec["key"]] != rec["sha256"]:
                why = "output differs from the first untraced pass"
            if why is not None:
                problems.append((where, rec["key"], why))
    return problems


def run_passes(args, stem):
    """(set-up pairs, untraced passes, traced pass or None), each a result of loop.py.

    A set-up pair is (reference import, set-up); a traced run reports no
    set-up time and makes no pairs.
    """
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = [] if args.trace else [
        (run_child(args, OUT / f"{stem}-reference.json", ["--reference-import"], deadline),
         run_child(args, OUT / f"{stem}-setup.json", ["--setup-only"], deadline))
        for _ in range(SETUP_PAIRS)
    ]
    passes = []
    first = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(run_child(args, OUT / f"{stem}-pass{len(passes)}.json", [], deadline))
        took = time.monotonic() - began
        if args.trace or time.monotonic() - first + took > args.seconds:
            break
    traced = run_child(args, OUT / f"{stem}-traced.json", ["--trace"], deadline) if args.trace else None
    return setups, passes, traced


def end_to_end(setups, passes):
    """(scaled metrics, raw times, per-task latencies, tail percentile)."""
    latencies = [statistics.median(col) for col in zip(*([rec["latency_s"] for rec in p["tasks"]] for p in passes))]
    tail_s, tail_pct = tail(latencies)
    summary = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "task_p50_s": hd_quantile(latencies, 0.5),
        "task_tail_s": tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw = {
        "wall_raw_s": statistics.median(p["wall_raw_s"] for p in passes),
        "cpu_raw_s": statistics.median(p["cpu_raw_s"] for p in passes),
        "setup_raw_s": statistics.median(p["setup_raw_s"] for p in [s for _, s in setups] or passes),
    }
    if setups:
        ratios = [s["setup_raw_s"] / ref["reference_import_s"] for ref, s in setups]
        summary["setup_s"] = REFERENCE_IMPORT_S * middle_mean(ratios)
        raw["reference_import_raw_s"] = statistics.median(ref["reference_import_s"] for ref, _ in setups)
    return summary, raw, latencies, tail_pct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store this run's output digests as the reference (use with seed {DEFAULT_SEED})")
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no projrep sources at {PACKAGE}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        print("perfbench: projrep does not compile", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    tasks = workloads.generate(args.workload, args.seed)
    reference = {} if args.record_digests or not DIGESTS.is_file() else json.loads(DIGESTS.read_text())
    try:
        setups, passes, traced = run_passes(args, stem)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    runs = [p["tasks"] for p in passes]
    problems = find_problems(runs, traced["tasks"] if traced else None, reference)
    attempted = sum(len(r) for r in runs) + (len(traced["tasks"]) if traced else 0)
    summary, raw, latencies, tail_pct = end_to_end(setups, passes)
    record = {
        "context": context(args, tasks),
        "passes": len(passes),
        "end_to_end": summary,
        "raw": raw,
        "fail_frac": len(problems) / attempted,
        "task_tail_percentile": tail_pct,
        "problems": problems,
        "task_latency_s": dict(zip((rec["key"] for rec in runs[0]), latencies)),
        "task_sha256": {rec["key"]: rec["sha256"] for rec in runs[0]},
        "speed_samples": [p["speed_samples"] for p in passes],
        "setup_pairs_raw_s": [[ref["reference_import_s"], s["setup_raw_s"]] for ref, s in setups],
    }
    metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END.items() if name in summary}
    if traced is not None:
        layers = {**traced["layers"], "trace.overhead_s": traced["wall_s"] - summary["wall_s"]}
        record.update(traced_wall_s=traced["wall_s"], per_layer=layers, trace_problems=traced["trace_problems"],
                      spans=f"{stem}-traced.json.spans")
        units = {**spans.metric_units(), "trace.overhead_s": "s"}
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    results_path = OUT / f"{stem}.json"
    results_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.record_digests and not problems:
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        stored.update({workloads.task_key(t): record["task_sha256"][workloads.task_key(t)]
                       for t in tasks if workloads.has_digest(t)})
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(tasks)} tasks, {len(passes)} untraced pass(es)"
          + (", 1 traced pass" if traced else ""))
    for name, value in summary.items():
        print(f"  {name:48s} {value:14.6f} {END_TO_END[name]}")
    if "setup_s" in summary:
        print(f"  setup_s is {REFERENCE_IMPORT_S} s times the middle-half mean of {len(setups)} ratios"
              f" of set-up to importing {', '.join(loop.REFERENCE_IMPORT)}")
    for name, value in raw.items():
        print(f"  {name:48s} {value:14.6f} s (unscaled)")
    print(f"  {'fail_frac':48s} {record['fail_frac']:14.6f} ({len(problems)} of {attempted} tasks)")
    print(f"  task_tail_s is the p{tail_pct:.1f} latency of {len(latencies)} tasks"
          f" ({min(TAIL_BEYOND, len(latencies) - 1)} beyond it)")
    if traced is not None:
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:14.6f} {m['unit']}")
        bench = traced["layers"][f"{spans.BENCH}.self_s"]
        program = sum(v for k, v in traced["layers"].items() if k.endswith(".self_s")) - bench
        print(f"  traced loop {traced['loop_span_s']:.6f} s raw: projrep layers {program:.6f} s"
              f" ({program / raw['wall_raw_s']:.3f} of the untraced pass's {raw['wall_raw_s']:.6f} s),"
              f" bench {bench:.6f} s ({100 * bench / traced['loop_span_s']:.1f} %)")
        trace_problems = traced["trace_problems"]
        print(f"  span table: {trace_problems['count']} problems")
        for why in trace_problems["first"]:
            print(f"  FAILED [trace] {why}")
    for where, key, why in problems[:20]:
        print(f"  FAILED [{where}] {key}: {why}")
    print(f"  results: {results_path.relative_to(ROOT)}")
    correct = not problems and (traced is None or not traced["trace_problems"]["count"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(problems), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
