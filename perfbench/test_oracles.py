"""The benchmark's closed forms against a brute-force enumeration of the
detection event model documented in ``ces.detection``.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_oracles.py
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import oracles

WINDOWS = (0.25, 0.4, 0.8, 1.0)
DARK_RATES = (0.0, 0.01, 0.3)
LATE_ERRORS = (0.0, 0.1, 0.6)


def _born_table(rho, theta_1, theta_2, depolarized):
    """p(j1, j2) for photon 1 at theta_1 and photon 2 at theta_2 (j = 0 is up)."""
    table = np.empty((2, 2))
    for j1, j2 in itertools.product(range(2), range(2)):
        p1 = oracles.analyzer_projector(theta_1)
        p2 = oracles.analyzer_projector(theta_2)
        p1 = p1 if j1 == 0 else np.eye(2) - p1
        p2 = p2 if j2 == 0 else np.eye(2) - p2
        if depolarized:
            table[j1, j2] = 0.5 * np.real(np.trace(rho @ np.kron(p1, np.eye(2))))
        else:
            table[j1, j2] = np.real(np.trace(rho @ np.kron(p1, p2)))
    return table


def enumerate_cells(rho, alpha, beta, eta, dark, window, late_error):
    """Exact cell probabilities (uu, ud, du, dd) and the discard probability.

    Branches, in the order of the module docstring: arm of each photon,
    emission-quantile region of photon 2, late depolarisation, Born outcome,
    detection of each photon, dark count on each detector with its port.
    """
    cells = np.zeros((2, 2))
    regions = (
        (min(window, oracles.LATE_BOUNDARY), False),
        (max(0.0, window - oracles.LATE_BOUNDARY), True),
    )
    for arm_1, arm_2 in itertools.product(range(2), range(2)):
        if arm_1 == arm_2:
            continue
        theta_1, theta_2 = (alpha, beta) if arm_1 == 0 else (beta, alpha)
        for p_region, late in regions:
            for depol in (False, True):
                p_depol = (late_error if depol else 1.0 - late_error) if late else float(not depol)
                table = _born_table(rho, theta_1, theta_2, depol)
                for j1, j2 in itertools.product(range(2), range(2)):
                    for dark_1, dark_2 in itertools.product((False, True), repeat=2):
                        p_dark = (dark if dark_1 else 1 - dark) * (dark if dark_2 else 1 - dark)
                        ports_1 = (0, 1) if dark_1 else (j1,)
                        ports_2 = (0, 1) if dark_2 else (j2,)
                        for k1, k2 in itertools.product(ports_1, ports_2):
                            p_ports = 1.0 / (len(ports_1) * len(ports_2))
                            port_a, port_b = (k1, k2) if arm_1 == 0 else (k2, k1)
                            cells[port_a, port_b] += (
                                0.25 * p_region * p_depol * table[j1, j2]
                                * eta**2 * p_dark * p_ports
                            )
    return cells.reshape(-1), 1.0 - cells.sum()


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("dark", DARK_RATES)
@pytest.mark.parametrize("late_error", LATE_ERRORS)
@pytest.mark.parametrize("p_white", (0.0, 0.13))
def test_chsh_and_coincidence_fraction(window, dark, late_error, p_white):
    rho = oracles.werner_state(p_white)
    eta = 0.2
    alpha, alpha_p, beta, beta_p = oracles.CHSH_QUAD
    e = {}
    for a, b in itertools.product((alpha, alpha_p), (beta, beta_p)):
        cells, discarded = enumerate_cells(rho, a, b, eta, dark, window, late_error)
        assert cells.sum() + discarded == pytest.approx(1.0, abs=1e-15)
        assert cells.sum() == pytest.approx(
            oracles.coincidence_fraction(window, eta), rel=1e-12
        )
        e[a, b] = (cells[0] + cells[3] - cells[1] - cells[2]) / cells.sum()
    s = abs(e[alpha_p, beta_p] - e[alpha, beta_p]) + abs(e[alpha_p, beta] + e[alpha, beta])
    assert s == pytest.approx(
        oracles.chsh_werner(p_white, dark, late_error, window), rel=1e-12
    )


def test_states_match_the_program():
    from ces.protocol import NoiseParams, final_state

    for p_white in (0.0, 0.13, 1.0):
        rho = final_state(NoiseParams(v0=1.0, p_white=p_white), 0.0).matrix
        assert np.allclose(rho, oracles.werner_state(p_white), atol=1e-14)
    for dt_us in (0.0, 0.8, 4.0, 10.0):
        noise = NoiseParams(v0=0.804, tau_e_us=5.7)
        v = oracles.coherence(noise.v0, noise.tau_e_us, dt_us)
        rho = final_state(noise, dt_us).matrix
        assert np.allclose(rho, oracles.dephased_singlet(v), atol=1e-14)
        assert oracles.negativity(rho) == pytest.approx(v / 2.0, abs=1e-14)


def test_closed_forms_of_the_state():
    for p_white in (0.0, 0.13, 0.5):
        rho = oracles.werner_state(p_white)
        assert oracles.singlet_fidelity(rho) == pytest.approx(
            oracles.werner_fidelity(p_white), abs=1e-14
        )
        assert oracles.s_max(rho) == pytest.approx(
            oracles.TSIRELSON * (1.0 - p_white), abs=1e-12
        )
    assert oracles.s_max(oracles.dephased_singlet(0.6)) == pytest.approx(
        2.0 * math.sqrt(1.0 + 0.36), abs=1e-12
    )
