"""Correlation values E(alpha, beta) and the CHSH combination S.

Correlations come either from coincidence counts (with multinomial standard
errors, settings treated as independent) or exactly from a density matrix.
The state-optimal CHSH value and a setting quad that attains it are both in
closed form: S_max = 2 sqrt(u1 + u2), with u1 >= u2 the two largest
eigenvalues of T^T T and T the two-qubit correlation matrix, reached by
orthogonal first-arm directions in the principal correlation plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import CountRecord, MeasurementSetting, outcome_probabilities
from .errors import ConfigError, DataError, ValidationError
from .qcore import correlation_matrix, require_valid_density, unstack

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class CorrelationEstimate:
    """Estimated E(alpha, beta) with its multinomial standard error."""

    value: float
    std_err: float
    n_total: int

    def __post_init__(self) -> None:
        if abs(self.value) > 1.0 + 1e-12:
            raise ValidationError(f"|E| must be <= 1, got {self.value}")
        if self.std_err < 0.0:
            raise ValidationError("std_err must be >= 0")


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
    return CorrelationEstimate(value=float(value), std_err=std_err, n_total=int(total))


def _angles_match(record_angle: float, target: float, tol: float = 1e-9) -> bool:
    diff = (record_angle - target) % 180.0
    return min(diff, 180.0 - diff) <= tol


def _pick_record(records, alpha: float, beta: float) -> CountRecord:
    for rec in records:
        if _angles_match(rec.setting.alpha_deg, alpha) and _angles_match(
            rec.setting.beta_deg, beta
        ):
            return rec
    raise ConfigError(f"no count record for setting ({alpha} deg, {beta} deg)")


def chsh_quad(settings) -> tuple[float, float, float, float] | None:
    """(alpha, alpha', beta, beta') of four settings filling a 2x2 grid once
    each, or None when the settings do not."""
    alphas = sorted({s.alpha_deg for s in settings})
    betas = sorted({s.beta_deg for s in settings})
    cells = {(s.alpha_deg, s.beta_deg) for s in settings}
    if len(alphas) != 2 or len(betas) != 2 or len(cells) != 4 or len(settings) != 4:
        return None
    return alphas[0], alphas[1], betas[0], betas[1]


def chsh_from_counts(records, settings: tuple[float, float, float, float]) -> BellResult:
    """CHSH S from four records covering the (alpha, alpha') x (beta, beta') grid.

    S = |E(a',b') - E(a,b')| + |E(a',b) + E(a,b)|; the standard error adds
    the four per-setting errors in quadrature.
    """
    alpha, alpha_p, beta, beta_p = settings
    e_ab = correlation_from_counts(_pick_record(records, alpha, beta))
    e_abp = correlation_from_counts(_pick_record(records, alpha, beta_p))
    e_apb = correlation_from_counts(_pick_record(records, alpha_p, beta))
    e_apbp = correlation_from_counts(_pick_record(records, alpha_p, beta_p))
    s = abs(e_apbp.value - e_abp.value) + abs(e_apb.value + e_ab.value)
    std_err = math.sqrt(sum(e.std_err**2 for e in (e_ab, e_abp, e_apb, e_apbp)))
    return BellResult(s_value=s, std_err=std_err, settings=tuple(float(x) for x in settings))


def analytic_correlation(rho, setting: MeasurementSetting) -> float:
    """Exact E(alpha, beta) from the Born-rule port probabilities."""
    p_uu, p_ud, p_du, p_dd = outcome_probabilities(rho, setting)
    return p_dd + p_uu - p_ud - p_du


def analytic_chsh(rho, settings: tuple[float, float, float, float]) -> BellResult:
    """Exact CHSH S of a state at a fixed analyzer-angle quad."""
    alpha, alpha_p, beta, beta_p = settings
    e = {
        (a, b): analytic_correlation(rho, MeasurementSetting(a, b))
        for a in (alpha, alpha_p)
        for b in (beta, beta_p)
    }
    s = abs(e[(alpha_p, beta_p)] - e[(alpha, beta_p)]) + abs(e[(alpha_p, beta)] + e[(alpha, beta)])
    return BellResult(s_value=s, std_err=0.0, settings=tuple(float(x) for x in settings))


def _plane_chsh(s1: float, s2: float, th_a: float, th_ap: float):
    """Best CHSH for fixed first-arm directions in the principal plane.

    With v(t) = (s1 cos t, s2 sin t), the optimal second-arm directions are
    parallel to v(a') +/- v(a), giving
    S = ||v(a') - v(a)|| + ||v(a') + v(a)||.
    """
    va = np.array([s1 * math.cos(th_a), s2 * math.sin(th_a)])
    vap = np.array([s1 * math.cos(th_ap), s2 * math.sin(th_ap)])
    diff = vap - va
    summ = vap + va
    s = float(np.linalg.norm(diff) + np.linalg.norm(summ))
    th_bp = math.atan2(diff[1], diff[0])
    th_b = math.atan2(summ[1], summ[0])
    return s, th_b, th_bp


def _principal_values(mat: np.ndarray) -> np.ndarray:
    """Singular values s1 >= s2 >= s3 of the correlation matrix (stacks too)."""
    return np.linalg.svd(correlation_matrix(mat), compute_uv=False)


def s_max(rho) -> float:
    """State-optimal CHSH value 2 sqrt(s1^2 + s2^2) of one state or a stack
    (Horodecki et al., PLA 200, 340 (1995)), capped at the Tsirelson bound."""
    return _s_max(require_valid_density(rho))


def _s_max(mat: np.ndarray) -> float:
    s = _principal_values(mat)
    value = 2.0 * np.sqrt(s[..., 0] * s[..., 0] + s[..., 1] * s[..., 1])
    return unstack(np.minimum(value, TSIRELSON_BOUND + 1e-12))


def max_chsh_from_state(rho) -> BellResult:
    """State-optimal CHSH value and a setting quad that attains it.

    The value is :func:`s_max`.  The quad puts the first arm at plane
    angles 0 and pi/2 and the second arm along v(a') + v(a) and
    v(a') - v(a) (see :func:`_plane_chsh`); the S it achieves is checked
    against the closed form to 1e-6.

    The returned angles are half the Bloch angles in the principal
    correlation plane, measured from the first principal axis, so they are
    not polarizer angles in general.  Only for isotropic correlations
    (singlet, Werner states), where every plane is principal, is the quad
    the polarizer quad (0, 45, 22.5, 67.5) degrees.
    """
    mat = require_valid_density(rho)
    value = _s_max(mat)
    s1, s2, _ = (float(x) for x in _principal_values(mat))
    th_a, th_ap = 0.0, 0.5 * math.pi
    s_achieved, th_b, th_bp = _plane_chsh(s1, s2, th_a, th_ap)
    if abs(s_achieved - value) > 1e-6:
        raise ValidationError(
            f"closed-form settings reach S = {s_achieved}, certificate is {value}"
        )

    def to_analyzer(th: float) -> float:
        return (math.degrees(th) / 2.0) % 180.0

    settings = (to_analyzer(th_a), to_analyzer(th_ap), to_analyzer(th_b), to_analyzer(th_bp))
    return BellResult(s_value=value, std_err=0.0, settings=settings)
