"""Every output of every CLI mode is the same bytes on a second run into the
run directories of the first."""

from __future__ import annotations

from conftest import import_script


def test_every_cli_output_repeats_byte_for_byte(monkeypatch, capsys, tmp_path):
    module = import_script("output_digests", monkeypatch)
    listings = []
    for _ in range(2):
        module.print_digests(root=tmp_path)
        listings.append(capsys.readouterr().out.splitlines())
    first, second = listings
    assert first and len({line.split()[1] for line in first}) == len(first)
    assert first == second
