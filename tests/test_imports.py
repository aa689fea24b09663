"""The package loads no optimizer or quadrature module from scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, math, pkgutil, sys
import tontine
for module in pkgutil.iter_modules(tontine.__path__):
    importlib.import_module("tontine." + module.name)
from tontine.grid import TimeGrid
from tontine.market import MarketModel
from tontine.mortality import gompertz_makeham_table
from tontine.optimizer import HomogeneousProblem, solve_infinite
from tontine.preferences import EzParams
grid = TimeGrid(0.25, 1.0)
problem = HomogeneousProblem(
    EzParams(risk=-2.0, substitution=0.5, discount=0.03, adequacy=0.05),
    gompertz_makeham_table(grid, 0.0, 0.01, 0.1),
    MarketModel(rate=0.02, mu=(0.05,), sigma=(0.2,), s0=(1.0,)),
    grid,
    1.0,
    math.inf,
)
solve_infinite(problem, methods=("martingale",))
print(" ".join(sorted(name for name in sys.modules if name.startswith(("scipy.optimize", "scipy.integrate")))))
"""


def test_package_and_pricing_route_load_no_scipy_optimize_or_integrate():
    # Every module imported, and the numeric pricing route run once, in a
    # fresh interpreter: scipy.optimize alone takes a large share of the
    # package's start-up time.
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == []
