"""Every output of every CLI mode is the same bytes on a second run into the
run directories of the first."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"


def test_every_cli_output_repeats_byte_for_byte(monkeypatch, capsys, tmp_path):
    # scripts/output_digests.py, imported without writing bytecode next to it;
    # it puts src/ on sys.path, which the monkeypatch undoes.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    listings = []
    for _ in range(2):
        module.print_digests(root=tmp_path)
        listings.append(capsys.readouterr().out.splitlines())
    first, second = listings
    assert first and len({line.split()[1] for line in first}) == len(first)
    assert first == second
