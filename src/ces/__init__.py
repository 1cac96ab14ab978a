"""Simulator and analysis toolkit for a cavity-mediated two-photon
polarization-entanglement experiment: parameterized noisy state generation,
Monte-Carlo polarization detection, CHSH analysis, nine-basis state
tomography, entanglement measures, and lifetime fitting."""

__version__ = "0.1.0"
