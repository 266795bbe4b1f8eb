"""One pass of a workload in a fresh interpreter.

    python3 perfbench/loop.py --workload W --seed S --out FILE [--trace | --setup-only | --reference-import]

Set-up is `import projrep` plus generating the task list.  Then one closed
loop runs the tasks one at a time, in one process and one thread, and only
after the last task are the outputs checked and digested.  Every module is
built inside its task, so the module, operator-matrix and chain-vector
caches start empty for each task, as in one `projrep` command-line call.
The machine's speed is sampled throughout the loop (speed.py), and every
time of the loop is reported raw and scaled to the reference speed.
Set-up is timed raw, without sampling.
The pass result goes to FILE as JSON; with --trace the spans go next to it.
--setup-only stops after set-up; --reference-import only times importing
REFERENCE_IMPORT, the yardstick for set-up time (see run.py).
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
import workloads  # noqa: E402

# libraries whose import is the yardstick for set-up time: the bulk of
# projrep's own import, and nothing a change to projrep can move
REFERENCE_IMPORT = ("numpy", "scipy.sparse")


def run_task(task):
    """(exit code, output text) of one task."""
    from projrep import action, cli, glmodules

    if task[0] == "bracket":
        n, dynkin, b = workloads.module_of(task)
        V = glmodules.build_irreducible(glmodules.DominantLabels(n, dynkin, b))
        return 0, json.dumps(action.verify_bracket_consistency(n, V, int(task[-1])))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(task))
    return code, buf.getvalue()


def run_tasks(tasks, tracer=None):
    """Run the closed loop while sampling the machine's speed.

    Returns the pass's times, raw and scaled to the reference speed, and one
    record per task.  Raw times leave out the time spent sampling.
    """
    meter = speed.Speedometer(tracer.innermost if tracer is not None else None)
    timings = []
    if tracer is not None:
        loop_span = tracer.open()
    meter.start()
    cpu0 = process_time()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.current_task = i
            span = tracer.open()
        start = perf_counter()
        try:
            code, out = run_task(task)
        except (Exception, SystemExit) as exc:
            code, out = None, f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        if tracer is not None:
            tracer.close(span, start, end)
            tracer.current_task = -1
        timings.append((start, end, code, out))
    cpu = process_time() - cpu0
    meter.stop()
    first, last = timings[0][0], timings[-1][1]
    if tracer is not None:
        tracer.close(loop_span, first, last)
        tracer.add_samples(s for s in meter.samples if first <= s[0] and s[1] <= last)
    records = []
    for task, (start, end, code, out) in zip(tasks, timings):
        busy, factor = meter.window(start, end)
        records.append({
            "key": workloads.task_key(task),
            "latency_s": (end - start - busy) * factor,
            "latency_raw_s": end - start - busy,
            "exit": code,
            "sha256": hashlib.sha256(out.encode()).hexdigest(),
            "problem": _problem(task, code, out),
        })
    ratio = sum(r["latency_s"] for r in records) / sum(r["latency_raw_s"] for r in records)
    sampling = sum(s[1] - s[0] for s in meter.samples)
    wall_raw = last - first - meter.window(first, last)[0]
    return {
        "wall_s": wall_raw * ratio,
        "wall_raw_s": wall_raw,
        "cpu_s": (cpu - sampling) * ratio,
        "cpu_raw_s": cpu - sampling,
        "loop_span_s": last - first,
        "speed_samples": len(meter.samples),
        "tasks": records,
    }


def _problem(task, code, out):
    if code is None:
        return out
    try:
        return workloads.check(task, code, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference-import", action="store_true")
    args = parser.parse_args()

    if args.reference_import:
        t0 = perf_counter()
        for name in REFERENCE_IMPORT:
            importlib.import_module(name)
        Path(args.out).write_text(json.dumps({"reference_import_s": perf_counter() - t0}))
        return

    t0 = perf_counter()
    import projrep.cli  # noqa: F401  (the whole package, as the command line loads it)

    tasks = workloads.generate(args.workload, args.seed)
    result = {"setup_raw_s": perf_counter() - t0}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        result.update(run_tasks(tasks, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            problems = tracer.check()
            result["trace_problems"] = {"count": len(problems), "first": problems[:20]}
            tracer.save(args.out + ".spans")
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
