"""The package loads no scipy module, depends on numpy alone, and holds no uncalled code."""

import ast
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, math, pkgutil, sys
import tontine
for module in pkgutil.iter_modules(tontine.__path__):
    importlib.import_module("tontine." + module.name)
from tontine.grid import TimeGrid
from tontine.market import MarketModel
from tontine.mortality import gompertz_makeham_table
from tontine.optimizer import HomogeneousProblem, solve_finite_dp, solve_infinite
from tontine.preferences import EzParams, PowerUtility, VnmParams
grid = TimeGrid(0.25, 1.0)
table = gompertz_makeham_table(grid, 0.0, 0.01, 0.1)
model = MarketModel(rate=0.02, mu=(0.05,), sigma=(0.2,), s0=(1.0,))
ez = EzParams(risk=-2.0, substitution=0.5, discount=0.03, adequacy=0.05)
solve_infinite(HomogeneousProblem(ez, table, model, grid, 1.0, math.inf), methods=("martingale",))
solve_finite_dp(HomogeneousProblem(VnmParams(PowerUtility(0.5), 0.02), table, model, grid, 1.0, 8))
print(" ".join(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def test_package_pricing_route_and_finite_pool_load_no_scipy():
    # Every module imported, the numeric pricing route run once and a
    # finite pool solved (which builds survivor kernels), in a fresh
    # interpreter: importing any part of scipy adds a large share of the
    # package's start-up time.
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == []


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]] == ["numpy"]


def _definitions(path: Path):
    """Module-level names, public or private, and public methods of ``path``, each with its defining node."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("__"):
                yield name, name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name, member


def _code_tokens(path: Path):
    """(line, previous token, token) for each code token of ``path``: strings and comments dropped."""
    with path.open("rb") as f:
        tokens = [(tok.start[0], tok.string) for tok in tokenize.tokenize(f.readline)
                  if tok.type not in (tokenize.STRING, tokenize.COMMENT)]
    return [(line, prev, word) for (_, prev), (line, word) in zip([(0, "")] + tokens, tokens)]


def test_every_public_name_has_a_caller_in_the_library_or_the_benchmark():
    # A code token naming it outside its own definition, in src/ or
    # benchmarks/, counts as a caller; docstrings, comments and the tests
    # do not count.  A method or property counts only as an attribute
    # reference (``.name``), so a local variable of the same word is no
    # caller.  Private module-level names are held to the same rule: a
    # helper that only the tests call is uncalled code.
    files = sorted(SRC.rglob("*.py")) + sorted((SRC.parent / "benchmarks").rglob("*.py"))
    tokens = {path: _code_tokens(path) for path in files}
    uncalled = []
    for path in sorted((SRC / "tontine").glob("*.py")):
        for qualified, name, node in _definitions(path):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            own = range(first, node.end_lineno + 1)
            references = [
                (other, line) for other, words in tokens.items() for line, prev, word in words
                if word == name and (prev == "." or "." not in qualified)
            ]
            if all(other == path and line in own for other, line in references):
                uncalled.append(f"{path.stem}.{qualified}")
    assert not uncalled, "names with no caller in src/ or benchmarks/: " + ", ".join(uncalled)
