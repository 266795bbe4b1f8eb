"""Properties of the package as a whole, read from its source and imports."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import projrep
from projrep.action import chevalley_generators
from projrep.charident import SpectrumReport
from projrep.glmodules import DominantLabels
from projrep.irreducibility import JordanHolderReport, criterion
from projrep.linalg import Matrix
from projrep.selfcheck import CheckRecord

PACKAGE_DIR = pathlib.Path(projrep.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so no invariant may rely on one
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_has_no_float_literal_or_float_call():
    # arithmetic stays exact: no float enters through a literal, float() or round()
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("float", "round")):
                found.append(f"{path.name}:{node.lineno}: {node.func.id}()")
    assert found == []


def test_package_imports_no_random_source():
    # every verdict is exhaustive over its range, so none may rest on a draw
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for m in modules
                      if m and m.split(".")[0] == "random"]
    assert found == []


def test_package_modules_use_every_name_they_import():
    # a deletion can leave an import behind; __init__ imports to re-export
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}  # bound name -> line of its import
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in used]
    assert found == []


def names_outside(owner, names):
    """Where a package module other than `owner` names one of `names`."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == owner:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in names:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_glmodules_names_is_dominant():
    # weights are compared in one form, by glmodules.dominant_weight_spaces
    assert names_outside("glmodules.py", {"is_dominant"}) == []


def test_only_action_names_monomials_of_degree():
    # a graded piece has one index, action.graded_basis, whose keys are the
    # degree's monomials in basis order
    assert names_outside("action.py", {"monomials_of_degree"}) == []


def test_only_charident_names_the_block_operator_definitions():
    # every block operator, its blocks and its report derive from one definition
    assert names_outside("charident.py", {"_definition", "_generator_grid"}) == []


def test_only_linalg_names_the_product_kernel():
    # every sparse column product runs the one loop, behind linalg's API
    assert names_outside("linalg.py", {"_product_into", "_columns"}) == []


def test_only_linalg_names_the_elimination_internals():
    # elimination stays behind rank, kernel_basis and EchelonSpan.insert
    assert names_outside("linalg.py", {"_reduce", "_add", "_rows", "_pivots"}) == []


# the only state that outlives a module or a command: the three operator
# constructors and the brackets of the spanning set, symbolic data keyed by n
# and bounded by n, and the argument parser
PROCESS_WIDE_CACHES = {
    "action.derivative_op",
    "action.scaling_op",
    "action.pseudo_translation_op",
    "action.spanning_brackets",
    "cli._parser",
}
_CACHE_NAMES = {"cache", "lru_cache"}
_CONTAINER_CALLS = {"dict", "set", "list", "defaultdict", "OrderedDict", "Counter",
                    "WeakKeyDictionary", "WeakValueDictionary", "deque"}


def _name(node):
    """The bare name a Name, an Attribute or a call of either refers to."""
    while isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_process_wide_caches_are_allowlisted():
    # a cache that outlives its module carries work from one command (or
    # benchmark task) to the next; memo tables belong on the module (module_memo)
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorated = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in node.decorator_list:
                    if _name(d) in _CACHE_NAMES:
                        found.add(f"{path.stem}.{node.name}")
                        decorated.add(d.lineno)
        # functools.cache or lru_cache anywhere but on a def, say cache(f)
        found.update(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, (ast.Name, ast.Attribute))
                     and _name(node) in _CACHE_NAMES and node.lineno not in decorated)
        # mutable containers bound at module level or in a class body
        for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
            for node in scope.body:
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                value = getattr(node, "value", None)
                if isinstance(value, ast.Call):
                    mutable = _name(value) in _CONTAINER_CALLS
                else:
                    mutable = isinstance(value, (ast.Dict, ast.Set, ast.List, ast.DictComp,
                                                 ast.SetComp, ast.ListComp))
                found.update(f"{path.stem}.{t.id}" for t in targets
                             if mutable and isinstance(t, ast.Name) and t.id != "__all__")
    assert found == PROCESS_WIDE_CACHES


# modules a command-line run never needs: numerical libraries, the import
# cost of dataclasses (inspect, ast, dis) and of typing, random (which no
# package module imports, so no dependency may bring it either), the selfcheck
# suites, which only `selfcheck` loads, and json, which only a --json run loads
NOT_LOADED_BY_CLI = (
    "numpy", "scipy", "dataclasses", "inspect", "typing", "random", "projrep.selfcheck",
    "json",
)


def test_cli_import_loads_neither_numpy_nor_scipy():
    probe = (
        "import sys, projrep.cli; "
        f"print(sorted(m for m in {NOT_LOADED_BY_CLI!r} if m in sys.modules))"
    )
    src_dir = str(PACKAGE_DIR.parent)
    # -S: no site hook may preload a module
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src_dir}, cwd=src_dir,
    )
    assert done.stdout.strip() == "[]"


def test_records_refuse_assignment():
    records = [
        (DominantLabels(2, (1,), 1), ("n", "dynkin", "b")),
        (chevalley_generators(2), ("e", "f", "h")),
        (SpectrumReport((Fraction(0),), True, (1,)),
         ("roots", "residual_is_zero", "multiplicities")),
        (criterion((Fraction(0), Fraction(0))),
         ("verdict", "failing_pairs", "first_failure_degree")),
        (JordanHolderReport(0, 1, 0, True, 1, (), (), (), False, None, None),
         ("k", "i0", "corollary_k", "corollary_consistent", "residual_index",
          "residual_weight", "submodule_dims_by_degree", "quotient_character",
          "finite_dim_flag", "finite_dim_highest_labels", "finite_dim_total")),
        (CheckRecord((1, (), Fraction(0)), "labels-roundtrip", True, ""),
         ("point", "check", "ok", "detail")),
    ]
    for record, fields in records:
        for field in fields:
            value = getattr(record, field)
            try:
                setattr(record, field, value)
            except AttributeError:
                continue
            raise AssertionError(f"{type(record).__name__}.{field} accepted an assignment")


def test_package_imports_only_the_standard_library():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_spectrum_oracle_runs_without_sympy():
    # a None entry in sys.modules makes any `import sympy` raise ImportError
    probe = (
        "import sys; sys.modules['sympy'] = None\n"
        "from fractions import Fraction\n"
        "from projrep.charident import brute_force_spectrum, sigma2_tilde\n"
        "from projrep.glmodules import DominantLabels, build_irreducible\n"
        "V = build_irreducible(DominantLabels(2, (1,), Fraction(1)))\n"
        "spectrum, complete = brute_force_spectrum(sigma2_tilde(V))\n"
        "print(sorted((str(r), g) for r, g in spectrum.items()), complete)\n"
    )
    src_dir = str(PACKAGE_DIR.parent)
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src_dir}, cwd=src_dir,
    )
    assert done.stdout.strip() == "[('0', 1), ('2', 3)] True"


def _definitions(tree):
    """(qualified name, name) of every function, class and method in a module."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((f"{owner}.{child.name}" if owner else child.name, child.name))
                visit(child, child.name if isinstance(child, ast.ClassDef) else owner)
            else:
                visit(child, owner)

    visit(tree, None)
    return found


def test_every_package_definition_is_used_by_the_package():
    # nothing in the package exists for the tests alone: each definition is
    # named by a package module other than the re-exporting __init__.py
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    used = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exempt = {"main", "_Parser.error"}  # the entry point and argparse's hook
    unused = [f"{name}: {qualified}" for name, tree in trees.items()
              for qualified, short in _definitions(tree)
              if short not in used and qualified not in exempt
              and not (short.startswith("__") and short.endswith("__"))]
    assert unused == []


def test_benchmark_traced_names_resolve():
    # the benchmark's tracer wraps these by name; read them without importing it
    spans = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tables = {}
    for node in ast.parse(spans.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("FUNCTIONS", "METHODS"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    assert set(tables) == {"FUNCTIONS", "METHODS"}
    missing = [f"{module}.{attr}" for module, attr in tables["FUNCTIONS"].values()
               if not hasattr(importlib.import_module(module), attr)]
    missing += [f"Matrix.{attr}" for attrs in tables["METHODS"].values() for attr in attrs
                if attr not in Matrix.__dict__]
    assert missing == []
    # its counters read rows, cols and the (row, col) keys of entries off a
    # matrix, and the entries argument of the constructor by position
    m = Matrix(2, 3, {(1, 2): 5, (0, 0): Fraction(1, 2)})
    assert (m.rows, m.cols) == (2, 3)
    assert sorted(m.entries) == [(0, 0), (1, 2)]
    assert list(inspect.signature(Matrix.__init__).parameters)[:4] == [
        "self", "rows", "cols", "entries"]


def test_irreducibility_reads_no_generator():
    # the twisted action on vectors of a graded piece (weight spaces, the
    # gl(n) restriction, the p_i step) is applied in action alone
    tree = ast.parse((PACKAGE_DIR / "irreducibility.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in {"e", "columns"}]
    assert found == []
