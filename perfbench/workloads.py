"""Seeded task lists for the three workloads, and the output checks.

A task is an argv-like list of strings.  `analyze`, `decompose` and
`verify-identity` tasks are passed to `projrep.cli.main` unchanged; a
`bracket` task names one module and a degree for
`action.verify_bracket_consistency`.  The task key (the argv joined by
spaces) identifies a task in the results and in `digests.json`.

Every class of input appears a fixed number of times in every seed's list
and the seed draws only the central scalar `b`, the degree split and the
order.  That keeps the total work nearly the same from seed to seed, so
seed-to-seed spread measures the program rather than the draw.

Standard library only: this module is imported before `projrep`, and the
checks must not trust the code they check.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("bracket-sweep", "analyze", "spectral")

# the acceptance grid's central scalars
B_VALUES = ("-2", "-1", "0", "1", "2", "1/2")


def _labels(dynkin):
    return ",".join(map(str, dynkin))


def _module_args(n, dynkin, b):
    return ["-n", str(n), "-a", _labels(dynkin), "-b", b]


def _bracket_sweep(rng):
    # Criterion 1's grid (n <= 3, labels <= 2, all six b).  n = 3 dominates
    # its time, so every n = 3 module runs: two of each label pair's six b
    # values through degree 2, the other four through degree 1.  The seed
    # draws the two from the nonzero b, because b = 0 runs about 20 % faster
    # than the rest and would otherwise move the list's slowest tasks from
    # seed to seed.  n <= 2 runs at the acceptance degree 4.
    tasks = []
    for dynkin in itertools.product(range(3), repeat=2):
        deep = rng.sample([b for b in B_VALUES if b != "0"], 2)
        for b in B_VALUES:
            tasks.append(["bracket", *_module_args(3, dynkin, b), "-k", "2" if b in deep else "1"])
    for n in (1, 2):
        for dynkin in itertools.product(range(3), repeat=n - 1):
            for b in B_VALUES:
                tasks.append(["bracket", *_module_args(n, dynkin, b), "-k", "4"])
    return tasks


# (n, dynkin, distinct b values per seed); b decides whether the module is
# reducible, so each class mixes irreducible and reducible cases.  n = 4
# holds the list's slowest tasks and runs every b, so that the tail does
# not move with the draw.
_ANALYZE_CLASSES = (
    [(2, (a,), 4) for a in range(4)]
    + [(3, d, 5) for d in itertools.product(range(3), repeat=2)]
    + [(4, d, 6) for d in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0),
                           (0, 2, 0), (0, 0, 2), (1, 0, 1), (1, 1, 0), (0, 1, 1))]
)

# the profiled reference input runs in every list with a fixed b: its time
# depends strongly on b (2.2 s to 4 s), so a drawn b would make the total
# swing from seed to seed
_ANALYZE_ANCHOR = ["analyze", "--json", "-n", "4", "-a", "1,1,1", "-b", "0"]


def _analyze(rng):
    tasks = [list(_ANALYZE_ANCHOR)]
    for n, dynkin, count in _ANALYZE_CLASSES:
        for b in rng.sample(B_VALUES, count):
            tasks.append(["analyze", "--json", *_module_args(n, dynkin, b)])
    return tasks


# dims 20..125; n = 3 with labels 3..4 is dominated by module construction,
# n = 4..5 by the block operators
_SPECTRAL_MODULES = (
    (3, (5, 0)), (3, (1, 4)), (3, (4, 1)), (3, (2, 3)), (3, (3, 2)), (3, (3, 3)),
    (3, (2, 4)), (3, (4, 2)), (3, (3, 4)), (3, (4, 3)), (3, (4, 4)),
    (4, (3, 0, 0)), (4, (0, 0, 3)), (4, (1, 1, 1)), (4, (2, 0, 1)), (4, (1, 0, 2)),
    (4, (2, 1, 0)), (4, (0, 1, 2)), (4, (0, 2, 1)), (4, (1, 2, 0)), (4, (0, 3, 0)),
    (4, (3, 0, 1)), (4, (2, 0, 2)),
    (5, (1, 0, 0, 1)), (5, (1, 1, 0, 0)), (5, (0, 0, 1, 1)), (5, (0, 1, 1, 0)),
    (5, (1, 0, 1, 0)), (5, (0, 1, 0, 1)), (5, (0, 2, 0, 0)),
)


def _spectral(rng):
    tasks = []
    for n, dynkin in _SPECTRAL_MODULES:
        tasks.append(["verify-identity", "--json", *_module_args(n, dynkin, rng.choice(B_VALUES))])
        tasks.append(["decompose", "--json", "-k", "1", *_module_args(n, dynkin, rng.choice(B_VALUES))])
    return tasks


def generate(workload, seed):
    """The task list of `workload` for `seed`; the same seed gives the same list."""
    build = {"bracket-sweep": _bracket_sweep, "analyze": _analyze, "spectral": _spectral}[workload]
    rng = random.Random(f"{workload}:{seed}")
    tasks = build(rng)
    rng.shuffle(tasks)
    return tasks


def task_key(task):
    return " ".join(task)


def has_digest(task):
    """Whether the task's output is digested in `digests.json`: the command
    line's JSON outputs are; a bracket task's output is `true`, which its
    check already requires."""
    return task[0] != "bracket"


def module_of(task):
    """(n, dynkin, b) named by a task's -n/-a/-b arguments."""
    opts = {flag: value for flag, value in zip(task, task[1:]) if flag in ("-n", "-a", "-b")}
    n = int(opts["-n"])
    dynkin = tuple(int(x) for x in opts["-a"].split(",") if x)
    return n, dynkin, Fraction(opts["-b"])


def weyl_dim(n, dynkin):
    """Dimension of the gl(n) irreducible with these Dynkin labels (Weyl's formula)."""
    lam = [sum(dynkin[i:]) for i in range(n - 1)] + [0]
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def check(task, exit_code, out):
    """None when the task's output passes its seed-independent check, else why not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if task[0] == "bracket":
        return None if out == "true" else "bracket check returned false"
    doc = json.loads(out)
    if task[0] == "analyze":
        return _check_analyze(doc)
    n, dynkin, _ = module_of(task)
    total = n * weyl_dim(n, dynkin)
    if task[0] == "verify-identity":
        for name, rep in sorted(doc.items()):
            if not rep["residual_zero"]:
                return f"{name}: residual is not zero"
            if sum(rep["multiplicities"]) != total:
                return f"{name}: multiplicities sum to {sum(rep['multiplicities'])}, not n*dim = {total}"
        return None
    if task[0] == "decompose":
        rows = doc["summands"]
        if sum(row["weyl_dim"] for row in rows) != total:
            return f"summand dimensions do not add up to n*dim = {total}"
        for row in rows:
            if row["projector_rank"] != row["weyl_dim"]:
                return f"summand {row['c']}: projector rank {row['projector_rank']} != {row['weyl_dim']}"
        return None
    raise ValueError(f"unknown task kind {task[0]!r}")


def _check_analyze(doc):
    if doc["criterion_forms_agree"] is not True:
        return "the two criterion forms disagree"
    first = doc["criterion"]["first_failure_degree"]
    if (doc["criterion"]["verdict"] == "reducible") != (first is not None):
        return "verdict and first failure degree disagree"
    if first is not None and doc["jordan_holder"] is None:
        return "reducible module without a composition series"
    for row in doc["ranks_by_degree"]:
        should_be_full = first is None or row["degree"] < first
        if should_be_full and row["rank"] != row["full"]:
            return f"degree {row['degree']}: rank {row['rank']} of {row['full']}, expected full"
        if row["degree"] == first and row["rank"] >= row["full"]:
            return f"degree {first}: rank is full, expected deficient"
    return None
