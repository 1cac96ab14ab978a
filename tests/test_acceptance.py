"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary.  All tolerances are pinned here; nothing is deferred to later
calibration.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from ces.bell import analytic_chsh, chsh_from_counts, max_chsh_from_state
from ces.config import load_config
from ces.detection import (
    DetectorParams,
    MeasurementSetting,
    simulate_tomography_dataset,
)
from ces.lifetime import fit_lifetime
from ces.measures import (
    concurrence,
    entanglement_of_formation,
    fidelity_singlet,
    log_negativity,
    report,
)
from ces.protocol import (
    EfficiencyParams,
    NoiseParams,
    final_state,
    rate_budget,
)
from ces.qcore import validate_density
from ces.rng import derive_seed
from ces.tomography import linear_inversion, mle_reconstruct
from conftest import (
    CONFIGS,
    draw_counts,
    exact_table,
    random_density,
    random_unitary,
    trace_distance,
)

SEED = 271828
TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
QUAD_1 = (0.0, 45.0, 22.5, -22.5)
QUAD_2 = (22.5, -22.5, 0.0, 45.0)

# Measured-state calibration (configs/calibrated.json): a Werner state of
# singlet fidelity 0.902, p_white = 4(1 - 0.902)/3.  The fidelity target rules
# out pure dephasing for the Bell figures (it would give direct S 2.274 and
# inferred S 2.566), so the white-noise admixture carries the full
# imperfection at the operating point.
CALIBRATED = load_config(CONFIGS / "calibrated.json").noise

# Window-study calibration (configs/window_study.json): clean early-photon
# fidelity 0.932 from pure dephasing, v0 = 2(0.932) - 1; the late 60% of the
# pulse is depolarized just enough to drag the full-window average to 0.902.
WINDOW_NOISE = load_config(CONFIGS / "window_study.json").noise
LATE_ERROR = 0.03 / (0.6 * (0.932 - 0.25))

REALISTIC_DET = DetectorParams(eta_det=0.2)


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _chsh_records(rho, quad, n_sequences, det, seed):
    alpha, alpha_p, beta, beta_p = quad
    settings = [(a, b) for a in (alpha, alpha_p) for b in (beta, beta_p)]
    return [
        draw_counts(rho, MeasurementSetting(*s), n_sequences, det, derive_seed(seed, i))
        for i, s in enumerate(settings)
    ]


def test_criterion_1_ideal_bell_limit():
    """Ideal protocol reaches the quantum CHSH maximum."""
    start = time.time()
    ideal = NoiseParams(v0=1.0, p_white=0.0, eta_pump=1.0)
    rho = final_state(ideal, 0.0)

    analytic = analytic_chsh(rho, QUAD_1).s_value
    analytic_ok = abs(analytic - TWO_SQRT_TWO) < 1e-9

    records = _chsh_records(rho, QUAD_1, 1_000_000, DetectorParams(), SEED)
    mc = chsh_from_counts(records, QUAD_1)
    mc_ok = abs(mc.s_value - TWO_SQRT_TWO) <= 5.0 * mc.std_err
    elapsed = time.time() - start
    _verdict(
        "1 ideal-protocol Bell limit",
        analytic_ok and mc_ok and elapsed < 10.0,
        f"analytic S - 2*sqrt(2) = {analytic - TWO_SQRT_TWO:.2e}, "
        f"MC S = {mc.s_value:.4f} +/- {mc.std_err:.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_measured_state_reproduction():
    """Calibrated simulation reproduces the measured state figures."""
    start = time.time()
    rho = final_state(CALIBRATED, 0.0)
    assert fidelity_singlet(rho) == pytest.approx(0.902, abs=1e-9)

    # Tomography leg at ~1e4 coincidences per basis.
    dataset = simulate_tomography_dataset(rho, 500_000, REALISTIC_DET, derive_seed(SEED, 10))
    per_basis = dataset.counts.sum() / 9.0
    fit = mle_reconstruct(dataset.counts)
    rep = report(fit.rho)
    checks = [
        ("F", rep.fidelity_singlet, 0.902, 0.02),
        ("C", rep.concurrence, 0.81, 0.04),
        ("E_F", rep.eof, 0.73, 0.05),
        ("E_N", rep.log_negativity, 0.867, 0.03),
        ("S_inferred", rep.s_max, 2.47, 0.06),
    ]
    failures = [f"{n}={v:.4f} (target {t}+/-{tol})" for n, v, t, tol in checks if abs(v - t) > tol]

    # Direct CHSH legs, run at both reported setting sets on disjoint
    # event streams.  Counts are raised to ~1e5 coincidences per setting so
    # the statistical scatter (sigma_S ~ 0.005) is small against the band.
    s_values = []
    for leg, quad in enumerate((QUAD_1, QUAD_2)):
        records = _chsh_records(rho, quad, 5_000_000, REALISTIC_DET, derive_seed(SEED, 20 + leg))
        s_values.append(chsh_from_counts(records, quad).s_value)
    for s, target in zip(s_values, (2.46, 2.53)):
        if abs(s - target) > 0.08:
            failures.append(f"S={s:.4f} (target {target}+/-0.08)")

    elapsed = time.time() - start
    detail = (
        f"F={rep.fidelity_singlet:.4f} C={rep.concurrence:.4f} E_F={rep.eof:.4f} "
        f"E_N={rep.log_negativity:.4f} S_inf={rep.s_max:.4f} "
        f"S_direct=({s_values[0]:.4f}, {s_values[1]:.4f}), "
        f"{per_basis:.0f} coinc/basis, {elapsed:.0f}s"
    )
    _verdict(
        "2 measured-state reproduction",
        not failures and elapsed < 120.0,
        detail + (f"; failed: {failures}" if failures else ""),
    )


def test_criterion_3_fidelity_decay_signature():
    """Dephasing-only fidelity saturates at one half, not one quarter."""
    noise = NoiseParams(v0=1.0, tau_e_us=5.7, p_white=0.0, eta_pump=1.0)
    f_long = fidelity_singlet(final_state(noise, 1e9))
    ok = abs(f_long - 0.5) < 1e-9
    _verdict("3 fidelity decay signature", ok, f"F(dt->inf) = {f_long:.12f}")


def test_criterion_4_lifetime_recovery():
    """Sweep over the storage-time grid recovers the configured lifetime."""
    start = time.time()
    noise = NoiseParams(v0=0.804, tau_e_us=5.7, p_white=0.0, eta_pump=1.0)
    grid = np.array([0.8, 2.0, 4.0, 6.0, 8.0, 10.0])
    values = []
    for i, dt in enumerate(grid):
        dataset = simulate_tomography_dataset(
            final_state(noise, float(dt)), 500_000, REALISTIC_DET, derive_seed(SEED, 30 + i)
        )
        negativity, _ = log_negativity(mle_reconstruct(dataset.counts).rho)
        values.append(negativity)
    fit = fit_lifetime(grid, np.array(values), kind="N")
    elapsed = time.time() - start
    ok = abs(fit.tau_e_us - 5.7) <= 0.4 and fit.converged and elapsed < 300.0
    _verdict(
        "4 lifetime recovery",
        ok,
        f"tau_hat = {fit.tau_e_us:.3f} us (target 5.7 +/- 0.4), n0 = {fit.n0:.4f}, {elapsed:.0f}s",
    )


def test_criterion_5_rate_budget():
    """Default efficiencies reproduce the published rate numbers."""
    rep = rate_budget(EfficiencyParams(0.086, 0.086, 50.0), DetectorParams(eta_det=0.2))
    ok = (
        abs(rep.p_pair_detect / 2.4e-4 - 1.0) < 0.25
        and abs(rep.pairs_produced_per_s / 370.0 - 1.0) < 0.10
        and abs(rep.pairs_detected_per_s / 12.0 - 1.0) < 0.25
    )
    _verdict(
        "5 rate budget",
        ok,
        f"p_pair = {rep.p_pair_detect:.3e}, produced = {rep.pairs_produced_per_s:.1f}/s, "
        f"detected = {rep.pairs_detected_per_s:.1f}/s",
    )


def _uhlmann_fidelity(rho, sigma) -> float:
    """Mixed-state fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""

    def sqrtm_psd(mat):
        w, v = np.linalg.eigh(mat)
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T

    root = sqrtm_psd(np.asarray(rho, dtype=complex))
    inner = sqrtm_psd(root @ np.asarray(sigma, dtype=complex) @ root)
    return float(np.real(np.trace(inner)) ** 2)


def test_criterion_6_tomography_oracle_equivalence():
    """MLE and linear inversion agree on exact data; MLE round-trips."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        rho = random_density(rng, 4)
        ds = exact_table(rho)
        d = trace_distance(mle_reconstruct(ds).rho, linear_inversion(ds).rho)
        worst = max(worst, d)
    agreement_ok = worst < 1e-6

    truth = final_state(CALIBRATED, 0.0)
    dataset = simulate_tomography_dataset(
        truth, 210_000, DetectorParams(), derive_seed(SEED, 40)
    )
    per_basis = min(rec.total for _, _, rec in dataset.records)
    fidelity = _uhlmann_fidelity(mle_reconstruct(dataset.counts).rho.matrix, truth.matrix)
    round_trip_ok = fidelity > 0.995 and per_basis >= 100_000
    _verdict(
        "6 tomography oracle equivalence",
        agreement_ok and round_trip_ok,
        f"max MLE-LI trace distance = {worst:.2e}, "
        f"round-trip fidelity = {fidelity:.5f} at >= {per_basis} coinc/basis",
    )


def test_criterion_7_window_feature():
    """Restricting the detection window recovers the early-photon fidelity."""
    start = time.time()
    rho = final_state(WINDOW_NOISE, 0.0)
    results = {}
    for w in (1.0, 0.4):
        det = DetectorParams(eta_det=0.2, window_fraction=w, late_emission_error=LATE_ERROR)
        dataset = simulate_tomography_dataset(rho, 400_000, det, derive_seed(SEED, 50))
        fit = mle_reconstruct(dataset.counts)
        results[w] = (fidelity_singlet(fit.rho), dataset.counts.sum())
    f_full, n_full = results[1.0]
    f_cut, n_cut = results[0.4]
    rate_ratio = n_cut / n_full
    ok = (
        abs(f_full - 0.902) < 0.02
        and abs(f_cut - 0.932) < 0.02
        and f_cut > f_full
        and abs(rate_ratio - 0.4) < 0.02
    )
    elapsed = time.time() - start
    _verdict(
        "7 window feature",
        ok,
        f"F(full) = {f_full:.4f}, F(40%) = {f_cut:.4f}, rate ratio = {rate_ratio:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_8_property_suites():
    """Representative invariant from each module; full suites run in pytest."""
    rng = np.random.default_rng(SEED + 8)
    failures = []

    # Channels preserve physicality.
    for _ in range(10):
        noise = NoiseParams(
            v0=rng.uniform(0, 1),
            tau_e_us=rng.uniform(0.5, 20),
            p_white=rng.uniform(0, 1),
            eta_pump=rng.uniform(0, 1),
        )
        if not validate_density(final_state(noise, rng.uniform(0, 20))).passed:
            failures.append("channel validity")
            break

    # Tsirelson bound on random states.
    for _ in range(10):
        if max_chsh_from_state(random_density(rng, 4)).s_value > TWO_SQRT_TWO + 1e-9:
            failures.append("Tsirelson bound")
            break

    # Local-unitary invariance of the entanglement monotones.
    rho = random_density(rng, 4)
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    rotated = u @ rho @ u.conj().T
    if abs(concurrence(rho) - concurrence(rotated)) > 1e-9:
        failures.append("LU invariance (concurrence)")
    if abs(log_negativity(rho)[1] - log_negativity(rotated)[1]) > 1e-9:
        failures.append("LU invariance (log negativity)")
    if abs(entanglement_of_formation(rho) - entanglement_of_formation(rotated)) > 1e-9:
        failures.append("LU invariance (eof)")

    # Seed determinism with bucket accounting.
    det = DetectorParams(eta_det=0.5, dark_rate=0.01)
    setting = MeasurementSetting(17.0, 64.0)
    a = draw_counts(rho, setting, 50_000, det, seed=SEED)
    b = draw_counts(rho, setting, 50_000, det, seed=SEED)
    if a != b:
        failures.append("seed determinism")
    if a.total + a.n_discarded != 50_000:
        failures.append("count accounting")

    _verdict(
        "8 property suites",
        not failures,
        "channel validity, Tsirelson, LU invariance, determinism, accounting"
        + (f"; failed: {failures}" if failures else ""),
    )
