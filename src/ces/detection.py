"""Stochastic model of the polarization detection chain.

Event model, per protocol sequence
----------------------------------
1. Both photons leave in the same spatial mode and a 50/50 non-polarizing
   beam splitter routes each one independently to analyzer arm A or B.
   Only sequences where the two photons end up on *different* arms can form
   a coincidence; same-arm sequences are discarded (they see a single
   analyzer setting and are not modeled further).
2. The emission time of photon 2 within its pulse is exponential.  The
   detection gate accepts the earliest ``window_fraction`` quantile of the
   pulse.  Photons emitted beyond the fixed :data:`LATE_BOUNDARY_QUANTILE`
   of the pulse count as "late" and are depolarized with probability
   ``late_emission_error`` (standing in for scattering during the second
   pulse); narrowing the window cuts these events out at the cost of rate.
3. The joint analyzer-port outcome follows the exact Born
   probabilities of the arrangement (which arm saw which photon, and
   whether photon 2 was depolarized).
4. Each photon is detected with probability ``eta_det``.  A dark count in a
   detector gate (probability ``dark_rate``) replaces that photon's
   recorded port with a uniformly random one; dark counts never create a
   coincidence on their own, so ``eta_det = 0`` yields no counts.
5. Surviving two-detector events are classified into the four coincidence
   cells (port of arm A x port of arm B); everything else increments
   ``n_discarded``.

Because the coincidence cells are indexed by arm rather than by photon,
the recorded statistics average the state over photon exchange.  Every
state the protocol produces is exchange-symmetric, so this is invisible
downstream; analyses of hand-crafted asymmetric states see the
symmetrized state.

Each sequence ends in exactly one of five outcomes (one of the four
cells, or discarded), independently of every other sequence.  The counts
of one setting are therefore exactly Multinomial(n_sequences, p), with p
summed in closed form over the branches above.  Each setting is one draw
on its own counter-based stream, and so are the nine basis pairs of one
tomography state (see :mod:`ces.rng`).  Counts are reproducible bit-for-bit
for a given seed whatever order settings and states run in, and a draw
costs the same for any n_sequences.

Each analyzer is described once, by the Bloch axis of its up port and the
port block ``_ports`` of that axis: ``analyzer_axis`` for a linear analyzer,
the exact axes of the tomography bases for ``TOMOGRAPHY_PORTS``, the blocks
that also build ``tomography.PROJECTORS``.

One kernel, ``_outcome_distribution``, gives p in closed form for a stack
of settings and states: one call for all the analyzer settings of a state
(``setting_probabilities``) or all the basis pairs of a tomography dataset,
and p goes on a grid of multiples of 2**-40 (``_on_grid``) before a draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DimensionError
from .qcore import pauli_expectations, require_two_qubit_density
from .rng import make_stream, positive_count

#: Emission-time quantile beyond which photon 2 carries the late-emission
#: depolarization.  Fixed by the reported window study (the detection window
#: that removes the excess error accepts the first 40% of the pulse).
LATE_BOUNDARY_QUANTILE = 0.4

#: Largest count a CSV reader and ``n_sequences`` accept: the analyses hold
#: counts as floats, which are exact up to 2**53.
MAX_COUNT = 2**53

#: Tomography basis pairs, each measured at both analyzer ports.
BASIS_LABELS = ("HV", "DA", "RL")

# Bloch axis (x, y, z) of each basis's up port H, D or R.  HV and DA are
# analyzer rotations (0 and 45 degrees); RL is a quarter-wave retarder with
# |H> -> (|H> + i|V>)/sqrt(2) in front of a 0-degree analyzer.
_BASIS_AXES = {"HV": (0.0, 0.0, 1.0), "DA": (1.0, 0.0, 0.0), "RL": (0.0, 1.0, 0.0)}


@dataclass(frozen=True)
class MeasurementSetting:
    """Analyzer angle pair (degrees), one per detection arm, modulo 180."""

    alpha_deg: float
    beta_deg: float

    def __post_init__(self) -> None:
        for name, value in (("alpha_deg", self.alpha_deg), ("beta_deg", self.beta_deg)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        object.__setattr__(self, "alpha_deg", float(self.alpha_deg) % 180.0)
        object.__setattr__(self, "beta_deg", float(self.beta_deg) % 180.0)


def check_unit_interval(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")


@dataclass(frozen=True)
class DetectorParams:
    """Detection-chain parameters."""

    eta_det: float = 1.0
    dark_rate: float = 0.0
    window_fraction: float = 1.0
    late_emission_error: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eta_det", "dark_rate", "late_emission_error"):
            check_unit_interval(name, getattr(self, name))
        if not (0.0 < self.window_fraction <= 1.0):
            raise ValueError(
                f"window_fraction must be within (0, 1], got {self.window_fraction!r}"
            )


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts for one measurement setting."""

    setting: MeasurementSetting
    n_uu: int
    n_ud: int
    n_du: int
    n_dd: int
    n_discarded: int = 0

    def __post_init__(self) -> None:
        for name in ("n_uu", "n_ud", "n_du", "n_dd", "n_discarded"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def total(self):
        return self.n_uu + self.n_ud + self.n_du + self.n_dd

    def counts(self) -> np.ndarray:
        """Cells in (uu, ud, du, dd) order."""
        return np.array([self.n_uu, self.n_ud, self.n_du, self.n_dd])


def analyzer_axis(theta_deg: float) -> np.ndarray:
    """Bloch axis a(theta) = (sin 2 theta, 0, cos 2 theta) of a linear analyzer
    rotated by theta_deg, in the D/A, R/L, H/V frame: its up port projects onto
    cos(theta)|H> + sin(theta)|V>."""
    theta = math.radians(2.0 * theta_deg)
    return np.array([math.sin(theta), 0.0, math.cos(theta)])


def _ports(axes) -> np.ndarray:
    """(..., 2, 4) port blocks of analyzers with Bloch axes (..., 3): rows
    (1, +a) for the up port and (1, -a) for the down port, the Pauli
    coefficients (I, x, y, z) of twice each port projector (I +- a.sigma)/2."""
    axes = np.asarray(axes, dtype=float)
    ports = np.ones(axes.shape[:-1] + (2, 4))
    ports[..., 0, 1:] = axes
    ports[..., 1, 1:] = -axes
    return ports


def _outcome_distribution(mat: np.ndarray, ports_a, ports_b, det: DetectorParams) -> np.ndarray:
    """Probabilities of (uu, ud, du, dd, discarded) for one protocol sequence.

    ports_a and ports_b hold the (..., 2, 4) port blocks U_A and U_B of arms A
    and B (``_ports``) for a stack of settings, and states (..., 4, 4)
    broadcast against them; each row of the (..., 5) result is bit for bit
    its own call.

    A port projector is P_i = (1/2) sum_m U[i, m] sigma_m, so with E the
    Pauli expectation matrix the Born table is tr(rho P_i x Q_j) =
    (1/4) (U_A E U_B^T)_ij.  The event model acts on E term by term: a dark
    count keeps a photon's identity term and scales its Bloch terms by
    k = 1 - dark_rate, s = (1, k, k, k); photon 2 inside the window is clean
    (weight c = w - late) or depolarized, which drops its Bloch terms, so
    t = (w, c, c, c) with w = window_fraction; each different-arm assignment
    has probability 1/4, and photon 1 at arm B transposes E; both photons
    are detected with eta_det**2.  With G_mn = E_mn s_m s_n t_n / E_00,
    cells = (eta_det**2 / 16) U_A (G + G^T) U_B^T, discarded = 1 - sum cells.
    """
    late = det.late_emission_error * max(0.0, det.window_fraction - LATE_BOUNDARY_QUANTILE)
    clean = det.window_fraction - late
    kept = 1.0 - det.dark_rate
    s = np.array([1.0, kept, kept, kept])
    e = pauli_expectations(mat)
    g = e * (s[:, None] * (s * np.array([det.window_fraction, clean, clean, clean])))
    cells = ports_a @ (g + np.swapaxes(g, -1, -2)) @ np.swapaxes(ports_b, -1, -2)
    cells = (det.eta_det**2 / 16.0 / e[..., :1, :1] * cells).reshape(*cells.shape[:-2], 4)
    return np.concatenate([cells, 1.0 - cells.sum(axis=-1, keepdims=True)], axis=-1)


def _on_grid(probs: np.ndarray) -> np.ndarray:
    """(..., 5) outcome probabilities with the four cells rounded to multiples
    of 2**-40 and the discarded cell the exact remainder, so that counts do
    not move with the last bits of p (another summation order or BLAS)."""
    out = np.maximum(np.rint(np.asarray(probs) * 2.0**40), 0.0) * 2.0**-40
    out[..., 4] = 1.0 - out[..., :4].sum(axis=-1)
    return out


def setting_probabilities(rho, settings, det: DetectorParams) -> np.ndarray:
    """(S, 5) outcome probabilities (uu, ud, du, dd, discarded) of one state
    at each of S analyzer settings: the state is validated once and one
    kernel call evaluates every setting."""
    mat = require_two_qubit_density(rho, one=True)
    ports = _ports([[analyzer_axis(s.alpha_deg), analyzer_axis(s.beta_deg)] for s in settings])
    return _outcome_distribution(mat, ports[:, 0], ports[:, 1], det)


def simulate_counts(probs, setting: MeasurementSetting, n_sequences: int, seed: int) -> CountRecord:
    """Counts of n_sequences protocol repetitions at one setting: one draw on
    ``make_stream(seed)`` from its outcome probabilities (a row of
    ``setting_probabilities``) put on the grid of ``_on_grid``."""
    draw = make_stream(seed).multinomial(positive_count(n_sequences), _on_grid(probs))
    return CountRecord(setting, *map(int, draw))


#: Analyzer angle (degrees, modulo 180) that measures each basis label; the
#: tomography CSV records it in its angle columns.
BASIS_ANGLES = {"HV": 0.0, "DA": 45.0, "RL": 0.0}
#: The nine tomography basis pairs (arm A label, arm B label), in dataset order.
BASIS_PAIRS = tuple(product(BASIS_LABELS, BASIS_LABELS))
#: Read-only (2, 9, 2, 4) port blocks: for arm A and arm B, the ``_ports``
#: block of its basis at each of the BASIS_PAIRS.  Every entry is 0 or +-1.
TOMOGRAPHY_PORTS = _ports([[_BASIS_AXES[pair[arm]] for pair in BASIS_PAIRS] for arm in (0, 1)])
TOMOGRAPHY_PORTS.flags.writeable = False


@dataclass(frozen=True)
class TomographyDataset:
    """Nine-basis counts as read-only int64 arrays: ``counts`` (9, 4) holds the
    cells (uu, ud, du, dd) of each of the BASIS_PAIRS in order, ``discarded``
    (9,) the discarded sequences of each; (P, 9, 4) and (P, 9) for P states."""

    counts: np.ndarray
    discarded: np.ndarray

    def __post_init__(self) -> None:
        points = np.shape(self.counts)[:-2][:1]
        for name, shape in (("counts", (*points, 9, 4)), ("discarded", (*points, 9))):
            value = np.asarray(getattr(self, name))
            if value.shape != shape or value.dtype.kind not in "iu" or np.any(value < 0):
                raise ValueError(f"{name} must be a {shape} array of integers >= 0")
            value = value.astype(np.int64)
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def records(self) -> tuple[tuple[str, str, CountRecord], ...]:
        """One (label_a, label_b, CountRecord) row per basis pair and state, in order."""
        pairs = BASIS_PAIRS * (self.counts.size // 36)
        rows = zip(pairs, self.counts.reshape(-1, 4).tolist(), self.discarded.ravel().tolist())
        return tuple(
            (a, b, CountRecord(MeasurementSetting(BASIS_ANGLES[a], BASIS_ANGLES[b]), *cells, n))
            for (a, b), cells, n in rows
        )


def simulate_tomography_dataset(
    rho, n_per_basis: int, det: DetectorParams, seed
) -> TomographyDataset:
    """Simulate the nine-basis tomography measurement set of one state with an
    int seed, or of a (P, 4, 4) stack of states with a sequence of P seeds.

    The states are validated once, and one kernel call gives the outcome
    probabilities of every basis pair.  Each state then draws its nine pairs
    of n_per_basis sequences in one multinomial call on ``make_stream`` of its
    own seed, so the dataset is independent of the order in which states
    execute, and point p of a stack is the dataset of state p alone.
    """
    one = isinstance(seed, (int, np.integer))
    mat = require_two_qubit_density(rho, one=one)
    seeds = [seed] if one else list(seed)
    if not one and (mat.shape[:-2] != (len(seeds),) or not seeds):
        raise DimensionError(f"expected a stack of {len(seeds)} states, got shape {mat.shape}")
    probs = _on_grid(_outcome_distribution(mat[..., None, :, :], *TOMOGRAPHY_PORTS, det))
    n = positive_count(n_per_basis)
    draws = [make_stream(s).multinomial(n, p) for s, p in zip(seeds, probs.reshape(-1, 9, 5))]
    draws = np.reshape(draws, probs.shape)
    return TomographyDataset(counts=draws[..., :4], discarded=draws[..., 4])
