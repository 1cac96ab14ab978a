"""Correlation values E(alpha, beta) and the CHSH combination S.

Correlations come either from coincidence counts (with multinomial standard
errors, settings treated as independent) or exactly from the two-qubit
correlation matrix T of a density matrix.  The state-optimal CHSH value and
a setting quad that attains it are both in closed form: S_max = 2 sqrt(u1 +
u2), with u1 >= u2 the two largest eigenvalues of T^T T, reached by
orthogonal first-arm directions in the principal correlation plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import CountRecord, MeasurementSetting, analyzer_axis
from .errors import ConfigError, DataError, ValidationError
from .qcore import correlation_matrix, require_two_qubit_density, unstack

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class CorrelationEstimate:
    """Estimated E(alpha, beta) with its multinomial standard error."""

    value: float
    std_err: float


@dataclass(frozen=True)
class BellResult:
    """CHSH value for a setting quad (alpha, alpha', beta, beta')."""

    s_value: float
    std_err: float
    settings: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if self.s_value > TSIRELSON_BOUND + 5.0 * self.std_err + 1e-9:
            raise ValidationError(
                f"S = {self.s_value} exceeds the quantum bound beyond 5 sigma"
            )


def correlation_from_counts(rec: CountRecord) -> CorrelationEstimate:
    """E = (n_dd + n_uu - n_ud - n_du) / N with std error sqrt((1-E^2)/N)."""
    total = rec.total
    if total <= 0:
        raise DataError("count record has zero coincidences")
    value = (rec.n_dd + rec.n_uu - rec.n_ud - rec.n_du) / total
    std_err = math.sqrt(max(0.0, 1.0 - value * value) / total)
    return CorrelationEstimate(value=float(value), std_err=std_err)


def chsh_quad(settings) -> tuple[float, float, float, float] | None:
    """(alpha, alpha', beta, beta') of four settings filling a 2x2 grid once
    each, or None when the settings do not."""
    alphas = sorted({s.alpha_deg for s in settings})
    betas = sorted({s.beta_deg for s in settings})
    cells = {(s.alpha_deg, s.beta_deg) for s in settings}
    if len(alphas) != 2 or len(betas) != 2 or len(cells) != 4 or len(settings) != 4:
        return None
    return alphas[0], alphas[1], betas[0], betas[1]


def _chsh(settings, correlation) -> BellResult:
    """S = |E(a',b') - E(a,b')| + |E(a',b) + E(a,b)| over the quad (a, a', b, b'),
    with ``correlation(alpha, beta)`` giving E and its standard error; the four
    errors add in quadrature."""
    alpha, alpha_p, beta, beta_p = settings
    cells = [correlation(a, b) for a in (alpha, alpha_p) for b in (beta, beta_p)]
    (e_ab, _), (e_abp, _), (e_apb, _), (e_apbp, _) = cells
    s = abs(e_apbp - e_abp) + abs(e_apb + e_ab)
    std_err = math.sqrt(sum(err**2 for _, err in cells))
    return BellResult(s_value=s, std_err=std_err, settings=tuple(float(x) for x in settings))


def chsh_from_counts(records, settings: tuple[float, float, float, float]) -> BellResult:
    """CHSH S from four records covering the (alpha, alpha') x (beta, beta') grid.

    Each cell takes the first record whose setting equals it (angles modulo
    180, as :class:`MeasurementSetting` stores them).
    """
    first = {}
    for rec in records:
        first.setdefault(rec.setting, rec)

    def correlation(a, b):
        rec = first.get(MeasurementSetting(a, b))
        if rec is None:
            raise ConfigError(f"no count record for setting ({a} deg, {b} deg)")
        estimate = correlation_from_counts(rec)
        return estimate.value, estimate.std_err

    return _chsh(settings, correlation)


def analytic_chsh(rho, settings: tuple[float, float, float, float]) -> BellResult:
    """Exact CHSH S of a state at a fixed analyzer-angle quad: E(alpha, beta)
    = a(alpha)^T T a(beta), with a(theta) = (sin 2 theta, 0, cos 2 theta) the
    analyzer's Bloch axis (``detection.analyzer_axis``) in the D/A, R/L, H/V
    frame of ``correlation_matrix``."""
    t = correlation_matrix(require_two_qubit_density(rho, one=True))
    return _chsh(settings, lambda a, b: (float(analyzer_axis(a) @ t @ analyzer_axis(b)), 0.0))


def _principal_values(mat: np.ndarray) -> np.ndarray:
    """Singular values s1 >= s2 >= s3 of the correlation matrix (stacks too)."""
    return np.linalg.svd(correlation_matrix(mat), compute_uv=False)


def s_max(mat: np.ndarray) -> float:
    """State-optimal CHSH value 2 sqrt(s1^2 + s2^2) of one validated state or
    stack (Horodecki et al., PLA 200, 340 (1995)), capped at the Tsirelson
    bound."""
    s = _principal_values(mat)
    value = 2.0 * np.sqrt(s[..., 0] * s[..., 0] + s[..., 1] * s[..., 1])
    return unstack(np.minimum(value, TSIRELSON_BOUND + 1e-12))


def max_chsh_from_state(rho) -> BellResult:
    """State-optimal CHSH value and a setting quad that attains it.

    The value is ``s_max``.  With s1 >= s2 the two largest singular
    values of T, write v(t) = (s1 cos t, s2 sin t) for a first-arm direction
    at plane angle t.  The first arm takes t = 0 and pi/2, and the second
    arm lies along v(pi/2) + v(0) = (s1, s2) and v(pi/2) - v(0) = (-s1, s2),
    at plane angles atan2(s2, s1) and atan2(s2, -s1); these reach
    S = 2 sqrt(s1^2 + s2^2).

    The returned angles are half the Bloch angles in the principal
    correlation plane, measured from the first principal axis, so they are
    not polarizer angles in general.  Only for isotropic correlations
    (singlet, Werner states), where every plane is principal, is the quad
    the polarizer quad (0, 45, 22.5, 67.5) degrees.
    """
    mat = require_two_qubit_density(rho, one=True)
    s1, s2, _ = (float(x) for x in _principal_values(mat))

    def to_analyzer(th: float) -> float:
        return (math.degrees(th) / 2.0) % 180.0

    settings = (
        to_analyzer(0.0),
        to_analyzer(0.5 * math.pi),
        to_analyzer(math.atan2(s2, s1)),
        to_analyzer(math.atan2(s2, -s1)),
    )
    return BellResult(s_value=s_max(mat), std_err=0.0, settings=settings)
