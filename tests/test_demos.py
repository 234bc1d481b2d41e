"""The fast demos run as scripts against the package in ``src``.

Each demo runs in a fresh directory and must exit 0, print the expected
first line and write exactly the expected files there.
``demo_benchmarks.py`` (80 runs of 30 agents x 500 iterations) is left out
for its run time; like any demo that is not run, it is only compiled and
the names it imports from ``fdopt`` are looked up.  Each python block of
``README.md`` runs the same way and must exit 0.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# demo -> (first stdout line, files it writes into its working directory)
DEMOS = {
    "demo_antenna.py": (
        "optimized element positions (wavelengths): [0.2157 0.6253 1.2337 1.6348]", [],
    ),
    "demo_evacuation.py": ("optimizer exit: arclength 75.282 -> point (50.00, 25.28)", []),
    "demo_search_history.py": (
        "wrote search_history.csv (10 agents x 150 iterations) and convergence.csv",
        ["convergence.csv", "search_history.csv"],
    ),
}


README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)


def _run_script(args, cwd):
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo, tmp_path):
    first_line, files = DEMOS[demo]
    done = _run_script([str(ROOT / "demos" / demo)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == first_line
    assert sorted(p.name for p in tmp_path.iterdir()) == files


@pytest.mark.parametrize(
    "demo", sorted(p.name for p in (ROOT / "demos").glob("*.py") if p.name not in DEMOS)
)
def test_unrun_demo_compiles_and_its_fdopt_imports_resolve(demo):
    path = ROOT / "demos" / demo
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    compile(tree, str(path), "exec")
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fdopt"
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [alias.name for alias in node.names if not hasattr(module, alias.name)]
        assert missing == [], f"{demo}: {node.module} has no {missing}"


@pytest.mark.parametrize("k", range(len(README_BLOCKS)))
def test_readme_python_block_runs(k, tmp_path):
    done = _run_script(["-c", README_BLOCKS[k]], tmp_path)
    assert done.returncode == 0, done.stderr
