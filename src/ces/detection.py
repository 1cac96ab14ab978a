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
summed in closed form over the branches above, and each setting is one
draw on its own keyed counter-based stream (see :mod:`ces.rng`).  Counts
are reproducible bit-for-bit for a given seed whatever order settings run
in, and a draw costs the same for any n_sequences.

One kernel, ``_outcome_distribution``, gives p for a stack of settings and
states; a tomography dataset of one state or of a stack (the whole sweep)
evaluates all its basis pairs in one call and draws them in another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DataError, DimensionError
from .qcore import (
    IDENTITY_2,
    KET_D,
    KET_H,
    KET_R,
    KET_V,
    require_two_qubit_density,
    tensor,
)
from .rng import keyed_multinomial, make_stream, positive_count

#: Emission-time quantile beyond which photon 2 carries the late-emission
#: depolarization.  Fixed by the reported window study (the detection window
#: that removes the excess error accepts the first 40% of the pulse).
LATE_BOUNDARY_QUANTILE = 0.4

#: Largest count the analyses accept: they hold counts as floats, which are
#: exact up to 2**53.
MAX_COUNT = 2**53

#: Tomography basis pairs, each measured at both analyzer ports.
BASIS_LABELS = ("HV", "DA", "RL")

#: Up-port ket of each basis; the down port is its complement.
_BASIS_KETS = {"HV": KET_H, "DA": KET_D, "RL": KET_R}


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


def _check_unit_interval(name: str, value: float) -> None:
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
            _check_unit_interval(name, getattr(self, name))
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


def analyzer_projectors(theta_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """Port projectors of a linear analyzer rotated by theta_deg.

    The up port projects onto cos(theta)|H> + sin(theta)|V>; the down port
    is its complement, so P_up + P_down is the identity exactly.
    """
    theta = math.radians(theta_deg)
    return _ports(math.cos(theta) * KET_H + math.sin(theta) * KET_V)


def basis_projectors(label: str) -> tuple[np.ndarray, np.ndarray]:
    """Port projectors for a tomography basis (HV, DA or RL).

    HV and DA are analyzer rotations (0 and 45 degrees).  RL is realized as
    a quarter-wave retarder with |H> -> (|H> + i|V>)/sqrt(2) in front of a
    0-degree analyzer, i.e. projectors onto |R> and |L>.
    """
    if label not in _BASIS_KETS:
        raise DataError(f"unknown basis label {label!r}, expected one of {BASIS_LABELS}")
    return _ports(_BASIS_KETS[label])


def _ports(ket) -> tuple[np.ndarray, np.ndarray]:
    """(|k><k|, I - |k><k|): the up port onto ``ket`` and its complement."""
    p_up = np.outer(ket, ket.conj())
    return p_up, IDENTITY_2 - p_up


def pair_projectors(projs_1, projs_2) -> np.ndarray:
    """Read-only (4, 4, 4) block of P_i x Q_j in (uu, ud, du, dd) order, the
    CountRecord cell order, for photon 1 analyzed by projs_1."""
    block = np.array([tensor(p, q) for p in projs_1 for q in projs_2])
    block.setflags(write=False)
    return block


def _outcome_distribution(mat: np.ndarray, projs_a, projs_b, det: DetectorParams) -> np.ndarray:
    """Probabilities of (uu, ud, du, dd, discarded) for one protocol sequence.

    projs_a and projs_b hold the port projectors of arms A and B, shape
    (..., 2, 2, 2) for a stack of settings; the result has shape (..., 5).
    States (..., 4, 4) broadcast against the settings, each bit for bit as
    in its own call.
    Sums the event model over its branches: each different-arm assignment
    (probability 1/4), photon 2 inside the window either clean or
    late-depolarized, both photons detected, and each recorded port mixed
    with a uniform one by a dark count.  Both analyzers' port projectors
    sum to the identity, so photon 1's marginal is a row sum of the joint
    table.
    """
    late = det.late_emission_error * max(0.0, det.window_fraction - LATE_BOUNDARY_QUANTILE)
    clean = det.window_fraction - late
    dark = (1.0 - det.dark_rate) * np.eye(2) + 0.5 * det.dark_rate

    # Born tables tr(rho (P_i x Q_j)) = sum rho[a, b, c, d] P[c, a] Q[d, b], with
    # rho indexed as rho[(a, b), (c, d)]; axis -3 puts photon 1 at arm A, then
    # at arm B.
    born = np.einsum(
        "...abcd,...ica,...jdb->...ij",
        mat.reshape(mat.shape[:-2] + (1, 2, 2, 2, 2)),
        np.stack([projs_a, projs_b], axis=-4),
        np.stack([projs_b, projs_a], axis=-4),
    )
    joint = np.clip(born.real, 0.0, None)
    joint /= joint.sum(axis=(-2, -1), keepdims=True)
    tables = dark @ (clean * joint + late * (0.5 * joint.sum(axis=-1, keepdims=True))) @ dark
    # With photon 1 at arm B the arm-indexed cell (port_a, port_b) is (j2, j1).
    cells = tables[..., 0, :, :] + np.swapaxes(tables[..., 1, :, :], -1, -2)
    cells = (0.25 * det.eta_det**2 * cells).reshape(*cells.shape[:-2], 4)
    return np.concatenate([cells, 1.0 - cells.sum(axis=-1, keepdims=True)], axis=-1)


def simulate_counts(
    rho, setting: MeasurementSetting, n_sequences: int, det: DetectorParams, seed: int
) -> CountRecord:
    """Run the detection chain for n_sequences protocol repetitions."""
    projs = analyzer_projectors(setting.alpha_deg), analyzer_projectors(setting.beta_deg)
    probs = _outcome_distribution(require_two_qubit_density(rho, one=True), *projs, det)
    draw = make_stream(seed).multinomial(positive_count(n_sequences), probs)
    return CountRecord(setting, *map(int, draw))


#: Analyzer angle (degrees, modulo 180) that measures each basis label; the
#: tomography CSV records it in its angle columns.
BASIS_ANGLES = {"HV": 0.0, "DA": 45.0, "RL": 0.0}
#: The nine tomography basis pairs (arm A label, arm B label), in dataset order.
BASIS_PAIRS = tuple(product(BASIS_LABELS, BASIS_LABELS))
# (9, 2, 2, 2) port projectors of arm A and of arm B at each basis pair, built once.
_TOMOGRAPHY_A, _TOMOGRAPHY_B = (
    np.array([basis_projectors(pair[arm]) for pair in BASIS_PAIRS]) for arm in (0, 1)
)


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
    probabilities of every basis pair.  Pair i of a state then runs
    n_per_basis sequences on the substream (seed, (i,)) of the state's seed,
    so the dataset is independent of the order in which bases and states
    execute, and point p of a stack is the dataset of state p alone.
    """
    one = isinstance(seed, (int, np.integer))
    mat = require_two_qubit_density(rho, one=one)
    seeds = [seed] if one else list(seed)
    if not one and (mat.shape[:-2] != (len(seeds),) or not seeds):
        raise DimensionError(f"expected a stack of {len(seeds)} states, got shape {mat.shape}")
    probs = _outcome_distribution(mat[..., None, :, :], _TOMOGRAPHY_A, _TOMOGRAPHY_B, det)
    row_seeds = [s for s in seeds for _ in BASIS_PAIRS]
    keys = [(i,) for i in range(len(BASIS_PAIRS))] * len(seeds)
    draws = keyed_multinomial(row_seeds, keys, n_per_basis, probs.reshape(-1, 5))
    draws = draws.reshape(probs.shape)
    return TomographyDataset(counts=draws[..., :4], discarded=draws[..., 4])
