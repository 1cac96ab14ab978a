"""Gaussian decay fit for the entanglement-vs-storage-time series.

The model is N(dt) = N0 exp(-(dt/tau)^2), fitted in negativity space where
it is linear in the amplitude; logarithmic-negativity inputs are converted
exactly via N = (2^EN - 1)/2 before fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

KIND_NEGATIVITY = "N"
KIND_LOG_NEGATIVITY = "EN"


@dataclass(frozen=True)
class LifetimeFit:
    """Fitted amplitude and 1/e time with covariance from the Jacobian."""

    n0: float
    tau_e_us: float
    covariance: np.ndarray
    residual_rms: float
    converged: bool

    def model(self, dt_us) -> np.ndarray:
        dt = np.asarray(dt_us, dtype=float)
        return self.n0 * np.exp(-((dt / self.tau_e_us) ** 2))


def _to_negativity(values: np.ndarray, kind) -> np.ndarray:
    kinds = np.broadcast_to(np.asarray(kind, dtype=object), values.shape)
    out = np.empty_like(values)
    for i, (v, k) in enumerate(zip(values, kinds)):
        if k == KIND_NEGATIVITY:
            out[i] = v
        elif k == KIND_LOG_NEGATIVITY:
            out[i] = (2.0**v - 1.0) / 2.0
        else:
            raise DataError(f"unknown series kind {k!r}, expected 'N' or 'EN'")
    return out


def _initial_guess(dt: np.ndarray, n: np.ndarray) -> tuple[float, float]:
    n0 = float(max(n.max(), 1e-6))
    half = n0 / 2.0
    below = np.nonzero(n <= half)[0]
    if below.size:
        dt_half = float(max(dt[below[0]], 1e-6))
        tau = dt_half / math.sqrt(math.log(2.0))
    else:
        tau = float(max(dt.max(), 1.0)) * 2.0
    return n0, tau


def fit_lifetime(dt_us, values, kind=KIND_NEGATIVITY, sigma=None) -> LifetimeFit:
    """Weighted nonlinear least squares of the Gaussian decay model.

    Parameters
    ----------
    dt_us, values
        Storage times (microseconds, >= 0) and the series values.
    kind
        'N' for negativity or 'EN' for logarithmic negativity, scalar or
        per-point.
    sigma
        Optional per-point standard deviations; omitted means unweighted.
    """
    dt = np.asarray(dt_us, dtype=float)
    vals = np.asarray(values, dtype=float)
    if dt.shape != vals.shape or dt.ndim != 1:
        raise DataError("dt_us and values must be 1-D arrays of equal length")
    if dt.size < 3:
        raise DataError(f"need at least 3 points to fit, got {dt.size}")
    if np.any(dt < 0.0):
        raise DataError("storage times must be >= 0")
    n = _to_negativity(vals, kind)
    if sigma is not None:
        w = np.asarray(sigma, dtype=float)
        if w.shape != dt.shape or np.any(w <= 0.0):
            raise DataError("sigma must match the data shape and be positive")
    else:
        w = np.ones_like(dt)

    def residuals(params):
        n0, tau = params
        return (n0 * np.exp(-((dt / tau) ** 2)) - n) / w

    def jacobian(params):
        n0, tau = params
        decay = np.exp(-((dt / tau) ** 2))
        d_n0 = decay / w
        d_tau = n0 * decay * (2.0 * dt**2 / tau**3) / w
        return np.column_stack([d_n0, d_tau])

    from scipy.optimize import least_squares  # lazy: importing it costs ~0.5 s

    res = least_squares(
        residuals,
        x0=np.array(_initial_guess(dt, n)),
        jac=jacobian,
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=2000,
    )
    n0, tau = (float(x) for x in res.x)
    dof = max(1, dt.size - 2)
    jtj = res.jac.T @ res.jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.full((2, 2), np.nan)
    if sigma is None:
        cov = cov * float(res.fun @ res.fun) / dof
    residual_rms = float(np.sqrt(np.mean((n0 * np.exp(-((dt / tau) ** 2)) - n) ** 2)))
    return LifetimeFit(
        n0=n0,
        tau_e_us=abs(tau),
        covariance=cov,
        residual_rms=residual_rms,
        converged=bool(res.success),
    )
