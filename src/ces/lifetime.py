"""Gaussian decay fit for the entanglement-vs-storage-time series.

The model is N(dt) = N0 exp(-(dt/tau)^2), fitted in negativity space where
it is linear in the amplitude; logarithmic-negativity inputs are converted
exactly via N = (2^EN - 1)/2 before fitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

KIND_NEGATIVITY = "N"
KIND_LOG_NEGATIVITY = "EN"
#: Points of the log-spaced tau scan that brackets the least-squares minimum.
_SCAN_POINTS = 512
#: Interior points, as fractions of the bracket, at which each round of the
#: refinement of that bracket evaluates the slope.
_REFINE_FRACTIONS = np.arange(1, 65) / 65.0


@dataclass(frozen=True)
class LifetimeFit:
    """Fitted amplitude and 1/e time with covariance from the Jacobian."""

    n0: float
    tau_e_us: float
    covariance: np.ndarray
    residual_rms: float
    converged: bool


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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_lifetime(dt_us, values, kind=KIND_NEGATIVITY, sigma=None) -> LifetimeFit:
    """Weighted least squares of the Gaussian decay model, with N0 profiled out.

    For a fixed tau the model is linear in N0, so N0(tau), RSS(tau) and the
    sign of dRSS/dtau have closed forms in four weighted sums (variable
    projection: Golub and Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).
    RSS is scanned on a log-spaced tau grid, and the root of dRSS/dtau
    between the neighbours of the best grid point is bracketed ever closer:
    each round evaluates the sign of the slope at 64 evenly spaced points at
    once and keeps the pair around its sign change, until no floating-point
    tau lies strictly inside; the residuals at that tau give the covariance.
    ``converged`` means that interior stationary point was found; it is false
    when RSS still falls at the grid's end, 10^3 times the longest storage
    time, because the data show no decay, or when RSS has no minimum that
    the storage times resolve.  A storage time whose square overflows has
    model value 0 at every tau; its inf * 0 terms are taken as 0.  A scan tau
    whose model underflows to 0 at every point gets NaN, without a warning.

    Parameters
    ----------
    dt_us, values
        Storage times (microseconds, >= 0, at least two distinct) and the
        series values.
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
    for name, column in (("dt_us", dt), ("value", vals)):
        if not np.all(np.isfinite(column)):
            raise DataError(f"{name} must be finite")
    if np.any(dt < 0.0):
        raise DataError("storage times must be >= 0")
    if np.ptp(dt) == 0.0:
        raise DataError("need at least two distinct storage times, one of them > 0")
    n = _to_negativity(vals, kind)
    if not np.all(np.isfinite(n)):
        raise DataError("value: an EN entry overflows when converted to negativity")
    if sigma is not None:
        w = np.asarray(sigma, dtype=float)
        if w.shape != dt.shape or not np.all(np.isfinite(w) & (w > 0.0)):
            raise DataError("sigma must match the data shape and be finite and positive")
    else:
        w = np.ones_like(dt)

    # With e = exp(-(dt/tau)^2), N0 = sum(e n/w^2) / sum(e^2/w^2), RSS = sum(n^2/w^2) -
    # N0 sum(e n/w^2), and dRSS/dtau has the sign of N0 (N0 sum(e^2 dt^2/w^2) - sum(e n dt^2/w^2)).
    by_e = np.nan_to_num(np.stack([n, n * dt**2], axis=1) / w[:, None] ** 2)
    by_e2 = np.nan_to_num(np.stack([np.ones_like(dt), dt**2], axis=1) / w[:, None] ** 2)
    n_n = np.sum((n / w) ** 2)

    def rss_and_slope(tau):
        """RSS and the sign of dRSS/dtau at each tau of a 1-D array."""
        e = np.exp(-((dt / tau[:, None]) ** 2))
        (e_n, e_n_dt2), (e_e, e_e_dt2) = (e @ by_e).T, ((e * e) @ by_e2).T
        n0 = e_n / e_e
        return n_n - n0 * e_n, np.sign(n0 * (n0 * e_e_dt2 - e_n_dt2))

    taus = np.geomspace(dt[dt > 0.0].min() / 10.0, 1e3 * dt.max(), _SCAN_POINTS)
    rss, slope = rss_and_slope(taus)
    k = int(np.argmin(rss))
    converged = bool(0 < k < taus.size - 1 and slope[k - 1] < 0.0 < slope[k + 1])
    lo, hi = (taus[k - 1], taus[k + 1]) if converged else (taus[k], taus[k])
    while np.nextafter(lo, hi) < hi:
        grid = lo + (hi - lo) * _REFINE_FRACTIONS
        falling = rss_and_slope(grid)[1] < 0.0
        j = grid.size if falling.all() else int(np.argmin(falling))
        lo, hi = (grid[j - 1] if j else lo), (grid[j] if j < grid.size else hi)
    tau = 0.5 * (lo + hi)
    g = np.exp(-((dt / tau) ** 2)) / w
    n0 = np.sum(g * n / w) / np.sum(g * g)
    res = n0 * g - n / w
    jac = np.stack([g, np.where(g > 0.0, n0 * g * (2.0 * dt**2 / tau**3), 0.0)], axis=1)
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = np.full((2, 2), np.nan)
    if sigma is None:
        cov = cov * float(res @ res) / max(1, dt.size - 2)
    residual_rms = float(np.sqrt(np.mean((res * w) ** 2)))
    return LifetimeFit(
        n0=float(n0),
        tau_e_us=float(tau),
        covariance=cov,
        residual_rms=residual_rms,
        converged=converged,
    )
