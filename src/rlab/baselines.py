"""Closed-form reference estimators the networks must beat.

Energy: a single multiplicative scale on the cluster sum, fitted by least
squares on the relative error.  Position: the energy-weighted barycenter,
optionally sharpened by a one-parameter inverse-sinh correction fitted to the
within-cell displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calo import Dataset, cluster_barycenter, cluster_energy_sum
from .errors import ContractError, DegenerateFitError
from .training import loss_value

barycenter = cluster_barycenter   # public alias: it is the position baseline


def fit_energy_scale(train: Dataset) -> float:
    """Scale c minimizing sum((c * S_i / E_i - 1)^2) over the sample.

    Setting the derivative to zero gives c = sum(r) / sum(r^2), r = S/E.
    """
    r = cluster_energy_sum(train.clusters) / train.energy
    denom = float(np.sum(r * r))
    if denom == 0.0:
        raise DegenerateFitError("all clusters are empty; no scale exists")
    return float(np.sum(r) / denom)


def predict_energy(scale: float, clusters: np.ndarray) -> np.ndarray:
    """Estimate E as scale * sum(cluster) for each of clusters [N, 15, 15]."""
    return scale * cluster_energy_sum(clusters)


@dataclass(frozen=True)
class ScurveFit:
    """Within-cell correction x = cell + asinh(2*beta*u) / (2*asinh(beta))... scaled
    so the cell edges map to themselves; beta -> 0 recovers the identity."""

    beta: float

    def correct(self, u: np.ndarray | float) -> np.ndarray | float:
        return 0.5 * np.arcsinh(2.0 * self.beta * np.asarray(u)) / math.asinh(self.beta)


def _cell_and_fraction(clusters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    bx = cluster_barycenter(clusters)[:, 0]
    cell = np.rint(bx)
    return cell, bx - cell     # fraction lands in [-0.5, 0.5]


def predict_position(fit: ScurveFit, clusters: np.ndarray) -> np.ndarray:
    """Horizontal impact estimate in cell widths from the grid center, one per cluster."""
    cell, u = _cell_and_fraction(clusters)
    return cell + fit.correct(u)


def _golden_min(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fit_scurve(train: Dataset, beta_range: tuple[float, float] = (0.1, 50.0)) -> ScurveFit:
    """Pick beta by golden-section search on the squared position error."""
    lo, hi = beta_range
    if not 0.0 < lo < hi:
        raise ContractError("beta_range must satisfy 0 < lo < hi")
    cell, u = _cell_and_fraction(train.clusters)
    truth = train.x

    def objective(beta: float) -> float:
        pred = cell + ScurveFit(beta).correct(u)
        d = pred - truth
        return float(np.sum(d * d))

    return ScurveFit(beta=_golden_min(objective, lo, hi))


def baseline_loss(train: Dataset, test: Dataset, target: str) -> float:
    """Test loss of the fitted classical estimator for the given target."""
    if target == "energy":
        pred, truth = predict_energy(fit_energy_scale(train), test.clusters), test.energy
    elif target == "position_x":
        pred, truth = predict_position(fit_scurve(train), test.clusters), test.x
    else:
        raise ContractError(f"unknown target {target!r}")
    return loss_value(target, pred, truth)
