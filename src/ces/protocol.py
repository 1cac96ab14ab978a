"""Analytic states of the two-photon emission sequence and the rate budget.

The sequence is modeled in four steps: the deterministic atom-photon
entangled state created by the first emission, a phenomenological storage
channel acting on the atomic qubit while it waits for the mapping pulse
(Gaussian dephasing plus a white-noise admixture), an optical-pumping
imperfection channel, and the coherent relabeling of the atomic qubit onto
the polarization of the second photon.

Photon generation itself is not simulated dynamically; per-pulse success
probabilities enter only through :func:`rate_budget`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import DetectorParams, _check_unit_interval
from .qcore import (
    IDENTITY_4,
    KET_SM,
    KET_SP,
    DensityMatrix,
    tensor,
    two_qubit_matrix,
)


@dataclass(frozen=True)
class NoiseParams:
    """Phenomenological storage-noise parameters.

    v0
        Coherence of the atomic superposition at zero storage time.
    tau_e_us
        1/e width of the Gaussian coherence decay, in microseconds.
    p_white
        Weight of a fully depolarized admixture applied after dephasing.
    eta_pump
        Optical-pumping success probability; failures are modeled as a
        fully depolarized pair (least-informative choice, keeps the channel
        linear).
    """

    v0: float = 1.0
    tau_e_us: float = 5.7
    p_white: float = 0.0
    eta_pump: float = 1.0

    def __post_init__(self) -> None:
        _check_unit_interval("v0", self.v0)
        _check_unit_interval("p_white", self.p_white)
        _check_unit_interval("eta_pump", self.eta_pump)
        if not self.tau_e_us > 0.0:
            raise ValueError(f"tau_e_us must be > 0, got {self.tau_e_us!r}")

    def coherence(self, dt_us: float) -> float:
        """Coherence factor v(dt) = v0 exp(-(dt/tau_e)^2)."""
        if dt_us < 0.0:
            raise ValueError(f"dt_us must be >= 0, got {dt_us!r}")
        x = dt_us / self.tau_e_us  # x * x is inf, not an OverflowError, at huge dt
        return self.v0 * math.exp(-(x * x))


@dataclass(frozen=True)
class EfficiencyParams:
    """Per-pulse photon probabilities and the pulse repetition rate.

    The per-photon detection efficiency is :attr:`DetectorParams.eta_det`.
    """

    p_photon1: float = 0.086
    p_photon2: float = 0.086
    rep_rate_khz: float = 50.0

    def __post_init__(self) -> None:
        _check_unit_interval("p_photon1", self.p_photon1)
        _check_unit_interval("p_photon2", self.p_photon2)
        if not self.rep_rate_khz > 0.0:
            raise ValueError(f"rep_rate_khz must be > 0, got {self.rep_rate_khz!r}")


@dataclass(frozen=True)
class RateReport:
    """Pair rates implied by EfficiencyParams and the detector efficiency."""

    p_pair_detect: float
    pairs_produced_per_s: float
    pairs_detected_per_s: float
    p_coincidence: float

    def __post_init__(self) -> None:
        if self.pairs_detected_per_s > self.pairs_produced_per_s + 1e-12:
            raise ValueError("detected rate cannot exceed produced rate")


def atom_photon_state() -> DensityMatrix:
    """Entangled atom-photon state after the first emission.

    The ket is (|1,-1>|s+> - |1,+1>|s->)/sqrt(2) in the atom x photon
    ordering, i.e. amplitudes on |00> and |11> of the 4-dimensional space.
    """
    ket = (tensor(np.array([1, 0]), KET_SP) - tensor(np.array([0, 1]), KET_SM)) / np.sqrt(2)
    return DensityMatrix.from_ket(ket)


# The mapping pulse converts the atomic Zeeman state into the polarization of
# the second photon: |1,-1> emits sigma-, |1,+1> emits sigma+.  On the qubit
# labels that is a bit flip, followed by reordering the factors so the output
# is photon1 x photon2.
_SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)
_FLIP_ATOM = tensor(np.array([[0, 1], [1, 0]]), np.eye(2))
_MAP = _SWAP @ _FLIP_ATOM


def map_to_photon_pair(rho_ap) -> DensityMatrix:
    """Relabel the atomic qubit as photon-2 polarization.

    The ideal atom-photon state maps exactly onto the photon-pair singlet
    (|s+ s-> - |s- s+>)/sqrt(2).
    """
    return DensityMatrix(_MAP @ two_qubit_matrix(rho_ap, one=True) @ _MAP.conj().T)


def apply_storage_noise(rho_ap, noise: NoiseParams, dt_us: float) -> DensityMatrix:
    """Storage channel acting on the atomic qubit between the two pulses.

    Coherences between the two atomic levels are multiplied by
    v(dt) = v0 exp(-(dt/tau_e)^2); populations are untouched by the
    dephasing part.  A white-noise admixture then mixes in the maximally
    mixed state with weight p_white.
    """
    mat = np.array(two_qubit_matrix(rho_ap, one=True))
    v = noise.coherence(dt_us)
    mat[0:2, 2:4] *= v
    mat[2:4, 0:2] *= v
    if noise.p_white > 0.0:
        mat = (1.0 - noise.p_white) * mat + noise.p_white * (IDENTITY_4 / 4.0)
    return DensityMatrix(mat)


def pumping_channel(rho, eta_pump: float) -> DensityMatrix:
    """Mix in a fully depolarized outcome for failed optical pumping."""
    _check_unit_interval("eta_pump", eta_pump)
    mat = two_qubit_matrix(rho, one=True)
    return DensityMatrix(eta_pump * mat + (1.0 - eta_pump) * (IDENTITY_4 / 4.0))


def final_state(noise: NoiseParams, dt_us: float) -> DensityMatrix:
    """Photon-pair state after the full sequence at storage time dt_us."""
    rho = atom_photon_state()
    rho = apply_storage_noise(rho, noise, dt_us)
    rho = pumping_channel(rho, noise.eta_pump)
    return map_to_photon_pair(rho)


def rate_budget(eff: EfficiencyParams, det: DetectorParams) -> RateReport:
    """Pair rates from independent per-pulse and per-photon probabilities.

    ``p_pair_detect = p_photon1 p_photon2 eta_det^2``, with ``eta_det`` the
    detector efficiency the Monte-Carlo also uses, follows the published
    budget, which acceptance criterion 5 checks against 2.4e-4 per sequence
    (within 25 %).  It omits two factors the detection model
    (:mod:`ces.detection`) applies to every produced pair: the 1/2 chance
    that the beam splitter sends the photons to different arms, and the
    window acceptance ``window_fraction`` w.  ``p_coincidence`` applies
    both, ``p_pair_detect * w / 2``: the coincidences per sequence that the
    detection model records.
    """
    p_pair = eff.p_photon1 * eff.p_photon2 * det.eta_det**2
    rep_per_s = eff.rep_rate_khz * 1e3
    produced = rep_per_s * eff.p_photon1 * eff.p_photon2
    return RateReport(
        p_pair_detect=p_pair,
        pairs_produced_per_s=produced,
        pairs_detected_per_s=rep_per_s * p_pair,
        p_coincidence=p_pair * 0.5 * det.window_fraction,
    )
