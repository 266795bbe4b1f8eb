"""Outside-in span tracing of projrep's layers.

`Tracer.install()` wraps the public functions listed in FUNCTIONS and
rebinds each wrapper in every `projrep.*` namespace that holds the original
(so `irreducibility.operator_matrix` and `cli.build_irreducible` are traced
too); the `Matrix` methods in METHODS are wrapped on the class.  Nothing in
`src/` changes, and `uninstall()` puts every original back.

Every call of a wrapped function records one span: layer name, start, end,
parent span and task id.  A call made while the innermost open span already
belongs to the same layer (`__sub__` calling `__add__`) is not a new span.
Spans stay in memory and are written once, by `save()`, after the run.
Self time is a span's duration minus the durations of its children; the
benchmark's own spans (the task loop, each task, speed samples, counting)
form the layer `bench`, so the self times of all layers add up to the
traced loop's duration.

Run `python3 perfbench/spans.py FILE` to print a saved trace's layer table.
"""

from __future__ import annotations

import array
import functools
import json
import sys
from collections import Counter
from time import perf_counter

# layer -> (module, function)
FUNCTIONS = {
    "glmodules.build_irreducible": ("projrep.glmodules", "build_irreducible"),
    "action.operator_matrix": ("projrep.action", "operator_matrix"),
    "action.act": ("projrep.action", "act"),
    "action.graded_basis": ("projrep.action", "graded_basis"),
    "action.verify_bracket_consistency": ("projrep.action", "verify_bracket_consistency"),
    "linalg.rank": ("projrep.linalg", "rank"),
    "linalg.kernel_basis": ("projrep.linalg", "kernel_basis"),
    "linalg.eval_operator_polynomial": ("projrep.linalg", "eval_operator_polynomial"),
    "linalg.idempotent_from_spectrum": ("projrep.linalg", "idempotent_from_spectrum"),
    "charident.sigma2_tilde": ("projrep.charident", "sigma2_tilde"),
    "charident.adjoint_matrices": ("projrep.charident", "adjoint_matrices"),
    "charident.check_characteristic_identity": ("projrep.charident", "check_characteristic_identity"),
    "charident.tensor_projector": ("projrep.charident", "tensor_projector"),
    "irreducibility.up_submodule_rank": ("projrep.irreducibility", "up_submodule_rank"),
    "irreducibility.jordan_holder": ("projrep.irreducibility", "jordan_holder"),
    "cli.main": ("projrep.cli", "main"),
}

# layer -> Matrix methods
METHODS = {
    "linalg.matmul": ("__matmul__",),
    "linalg.addsub": ("__add__", "__sub__"),
    "linalg.Matrix": ("__init__",),
    "linalg.apply": ("apply",),
}

BENCH = "bench"
LAYERS = tuple(FUNCTIONS) + tuple(METHODS) + (BENCH,)


def _madds(a, b):
    """Multiply-adds of a sparse product: sum over k of nnz(A[:,k]) * nnz(B[k,:])."""
    rows_of_b = Counter(r for r, _ in b.entries)
    return sum(k * rows_of_b[c] for c, k in Counter(c for _, c in a.entries).items())


def _entries(args, kwargs):
    entries = args[3] if len(args) > 3 else kwargs.get("entries")
    return len(entries) if entries else 0


# layer -> (counter, function of (args, kwargs, result), needs its own span);
# a counter that walks a matrix runs in a `bench` span so its cost is not
# charged to the caller's layer
COUNTERS = {
    "glmodules.build_irreducible": ("dim", lambda args, kwargs, result: result.dim, False),
    "linalg.matmul": ("madds", lambda args, kwargs, result: _madds(args[0], args[1]), True),
    "linalg.Matrix": ("entries", lambda args, kwargs, result: _entries(args, kwargs), False),
    "linalg.rank": ("cells", lambda args, kwargs, result: args[0].rows * args[0].cols, False),
}

# derived from the spans after the run: operator_matrix calls that assembled
# their matrix (issued `act`) rather than returning a cached one
ASSEMBLED = "action.operator_matrix.assembled"


def metric_units():
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for layer in LAYERS:
        if layer != BENCH:
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in COUNTERS:
            units[f"{layer}.{COUNTERS[layer][0]}"] = "count"
    units[ASSEMBLED] = "count"
    return units


class Tracer:
    """Span recorder for one traced pass; see the module docstring."""

    def __init__(self):
        self.names = list(LAYERS)
        self._layer_id = {name: i for i, name in enumerate(self.names)}
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.task = array.array("i")
        self.counts = Counter()
        self.current_task = -1
        self._stack = [-1]
        self._undo = []

    # -- recording -----------------------------------------------------------

    def open(self, layer=BENCH):
        """Open a span of `layer` under the innermost open span; returns its index."""
        idx = len(self.name)
        self.name.append(self._layer_id[layer])
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.task.append(self.current_task)
        self._stack.append(idx)
        return idx

    def close(self, idx, start, end):
        self._stack.pop()
        self.start[idx] = start
        self.end[idx] = end

    def innermost(self):
        return self._stack[-1]

    def add_samples(self, samples):
        """Record speed samples (enter, exit, probe, innermost span) as
        `bench` spans, so their time is not charged to the layer they
        interrupted.

        A span is pushed before its start is read and popped after its end
        is read, so a sample that lands in between lies just outside the
        innermost span; it becomes a child of the nearest span around it.
        """
        start, end = self.start, self.end
        for enter, exit_, _, parent in samples:
            while parent >= 0 and not (start[parent] <= enter and exit_ <= end[parent]):
                parent = self.parent[parent]
            self.name.append(self._layer_id[BENCH])
            self.start.append(enter)
            self.end.append(exit_)
            self.parent.append(parent)
            self.task.append(self.task[parent] if parent >= 0 else -1)

    def _wrap(self, layer, fn):
        lid = self._layer_id[layer]
        name, stack, counts = self.name, self._stack, self.counts
        counter, count, timed = COUNTERS.get(layer, (None, None, False))
        key = f"{layer}.{counter}"

        def wrapper(*args, **kwargs):
            if stack[-1] >= 0 and name[stack[-1]] == lid:
                return fn(*args, **kwargs)
            idx = self.open(layer)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx, start, perf_counter())
            if count is not None:
                if timed:
                    cidx = self.open()
                    cstart = perf_counter()
                    counts[key] += count(args, kwargs, result)
                    self.close(cidx, cstart, perf_counter())
                else:
                    counts[key] += count(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- installing ----------------------------------------------------------

    def install(self):
        """Wrap every layer function; projrep must already be imported."""
        from projrep.linalg import Matrix

        namespaces = [m for k, m in sys.modules.items() if k == "projrep" or k.startswith("projrep.")]
        for layer, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(layer, original)
            for ns in namespaces:
                for k in [k for k, v in vars(ns).items() if v is original]:
                    self._undo.append((ns, k, original))
                    setattr(ns, k, wrapper)
        for layer, attrs in METHODS.items():
            for attr in attrs:
                original = Matrix.__dict__[attr]
                self._undo.append((Matrix, attr, original))
                setattr(Matrix, attr, self._wrap(layer, original))

    def uninstall(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # -- reading -------------------------------------------------------------

    def check(self):
        return check(self.name, self.start, self.end, self.parent)

    def metrics(self):
        return layer_metrics(self.names, self.name, self.start, self.end, self.parent, self.counts)

    def save(self, path):
        """Write the spans: one JSON header line, then the five arrays raw."""
        header = {
            "layers": self.names,
            "spans": len(self.name),
            "arrays": [[f, getattr(self, f).typecode] for f in ("name", "start", "end", "parent", "task")],
            "counts": dict(self.counts),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)


def load(path):
    """(header, {field: array}) of a file written by `Tracer.save`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, typecode in header["arrays"]:
            arrays[field] = array.array(typecode)
            arrays[field].fromfile(fh, header["spans"])
    return header, arrays


def check(name, start, end, parent):
    """Problems of a span table: a span that ends before it starts, a span
    outside its parent's interval, or children that cover more time than
    their parent lasts (which would make its self time negative)."""
    problems = []
    covered = [0.0] * len(name)
    for i, p in enumerate(parent):
        if end[i] < start[i]:
            problems.append(f"span {i} ends before it starts")
        if p >= 0:
            covered[p] += end[i] - start[i]
            if not (start[p] <= start[i] and end[i] <= end[p]):
                problems.append(f"span {i} lies outside its parent {p}")
    for i, c in enumerate(covered):
        # children are timed apart from their parent, so allow rounding
        if c > end[i] - start[i] + 1e-9:
            problems.append(f"the children of span {i} cover more than its duration")
    return problems


def layer_metrics(names, name, start, end, parent, counts):
    """Per-layer calls, self seconds and counters from a span table."""
    n = len(name)
    covered = [0.0] * n
    act, opm = names.index("action.act"), names.index("action.operator_matrix")
    assembling = set()
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
            if name[i] == act and name[p] == opm:
                assembling.add(p)
    self_s = Counter()
    calls = Counter()
    for i in range(n):
        layer = names[name[i]]
        self_s[layer] += end[i] - start[i] - covered[i]
        calls[layer] += 1
    out = {ASSEMBLED: len(assembling)}
    for metric in metric_units():
        layer, _, what = metric.rpartition(".")
        if what == "calls":
            out[metric] = calls[layer]
        elif what == "self_s":
            out[metric] = self_s[layer]
        elif metric != ASSEMBLED:
            out[metric] = counts.get(metric, 0)
    return out


def main(argv):
    header, arrays = load(argv[1])
    metrics = layer_metrics(
        header["layers"], arrays["name"], arrays["start"], arrays["end"], arrays["parent"], header["counts"]
    )
    print(f"{header['spans']} spans over {max(arrays['task'], default=-1) + 1} tasks")
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    for layer in header["layers"]:
        self_s = metrics[f"{layer}.self_s"]
        calls = metrics.get(f"{layer}.calls", "")
        print(f"{layer:40s} {self_s:10.4f} s {100 * self_s / total if total else 0:6.1f} % {calls:>10}")
    print(f"{'total':40s} {total:10.4f} s")


if __name__ == "__main__":
    main(sys.argv)
