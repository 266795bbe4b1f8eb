"""Properties of the package as a whole, read from its source and imports."""

import ast
import os
import pathlib
import subprocess
import sys

import projrep

PACKAGE_DIR = pathlib.Path(projrep.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so no invariant may rely on one
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_import_loads_neither_numpy_nor_scipy():
    probe = (
        "import sys, projrep.cli; "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    src_dir = str(PACKAGE_DIR.parent)
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src_dir}, cwd=src_dir,
    )
    assert done.stdout.strip() == "[]"
