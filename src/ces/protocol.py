"""Analytic states of the two-photon emission sequence and the rate budget.

The sequence has four steps, in the atom x photon ordering with the atomic
qubit |0> = |1,-1>, |1> = |1,+1>:

1. the first emission leaves (|1,-1>|s+> - |1,+1>|s->)/sqrt(2), i.e.
   (|00> - |11>)/sqrt(2);
2. during storage the coherences between the atomic levels decay by
   v(dt) = v0 exp(-(dt/tau_e)^2), populations untouched, and a white-noise
   admixture mixes in I/4 with weight p_white;
3. failed optical pumping (probability 1 - eta_pump) mixes in I/4 again;
4. the mapping pulse relabels the atomic qubit as photon 2's polarization
   (|1,-1> emits s-: a bit flip) and the factors are reordered to photon 1 x
   photon 2, taking |00> to |+-> and |11> to |-+>.

Mixing in I/4 commutes with the relabeling, so the photon pair in the sigma
basis {++, +-, -+, --} is, with lambda = eta_pump (1 - p_white),

    rho = lambda [ (|+-><+-| + |-+><-+|)/2 - (v/2)(|+-><-+| + |-+><+-|) ]
          + (1 - lambda) I/4.

Photon generation is not simulated dynamically; per-pulse success
probabilities enter only through :func:`rate_budget`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import DetectorParams, check_unit_interval
from .qcore import DensityMatrix


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
        check_unit_interval("v0", self.v0)
        check_unit_interval("p_white", self.p_white)
        check_unit_interval("eta_pump", self.eta_pump)
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
        check_unit_interval("p_photon1", self.p_photon1)
        check_unit_interval("p_photon2", self.p_photon2)
        if not 0.0 < self.rep_rate_khz * 1e3 < math.inf:
            raise ValueError(f"rep_rate_khz must be > 0 and finite in Hz, got {self.rep_rate_khz!r}")


@dataclass(frozen=True)
class RateReport:
    """Pair rates implied by EfficiencyParams and the detector efficiency."""

    p_pair_detect: float
    pairs_produced_per_s: float
    pairs_detected_per_s: float
    p_coincidence: float


def final_state(noise: NoiseParams, dt_us: float) -> DensityMatrix:
    """Photon-pair state at storage time dt_us: the closed form of the module docstring."""
    weight = noise.eta_pump * (1.0 - noise.p_white)
    coherence = noise.coherence(dt_us)
    mat = np.diag([0.0, 0.5, 0.5, 0.0]) * weight + 0.25 * (1.0 - weight) * np.eye(4)
    mat[1, 2] = mat[2, 1] = -0.5 * weight * coherence
    return DensityMatrix(mat)


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
