"""Quadrature oracle for survival laws, independent of the closed forms."""

import numpy as np
from scipy import integrate


def numeric_survival_from_hazard(hazard, t: float) -> float:
    """Survival exp(-integral of the hazard over [0, t]), by quadrature."""
    integral, _ = integrate.quad(hazard, 0.0, t, limit=200)
    return float(np.exp(-integral))
