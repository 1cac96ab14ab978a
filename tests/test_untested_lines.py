"""``scripts/untested_lines.py`` lists the lines of ``ces`` a test run left
out, and no line it ran."""

from __future__ import annotations

import os
import subprocess
import sys

from conftest import SCRIPTS


def test_lists_the_lines_a_run_left_out(tmp_path):
    # One small test class: it runs the storage-time guard of NoiseParams
    # and the module-level lines of every ces module its imports load, and
    # no line of the lifetime fit's body.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "untested_lines.py"),
         "tests/test_protocol.py::TestNoiseParamsValidation", "--basetemp", str(tmp_path)],
        cwd=SCRIPTS.parent, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    listed = result.stdout.splitlines()
    assert all(line.startswith("ces/") for line in listed)
    sources = {line.split("  ", 1)[1] for line in listed}
    assert 'raise DataError("dt_us and values must be 1-D arrays of equal length")' in sources
    assert 'raise ValueError(f"dt_us must be >= 0, got {dt_us!r}")' not in sources
    assert "HERMITICITY_TOL = 1e-10" not in sources
