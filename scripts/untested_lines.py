"""List every executable line of ``src/ces`` that no test runs.

Runs pytest in this process with a ``sys.settrace`` tracer that follows
only the frames of ``src/ces``, then prints one ``ces/<module>.py:<line>
<source>`` line per executable line that no test reached, to standard
output; pytest's own report goes to standard error.  With no arguments it
runs the Tier-1 suite (the ``testpaths`` of ``pyproject.toml``); arguments
are passed to pytest instead:

    python scripts/untested_lines.py
    python scripts/untested_lines.py tests/test_qcore.py -k Json

The tracer is installed before anything imports ``ces``, so module-level
lines count.  Code that a test runs in a subprocess is not seen, and its
lines are listed as untested.  The exit status is pytest's.  Uses the
standard library and pytest only.
"""

from __future__ import annotations

import contextlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ces"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled code of ``path`` runs."""
    lines = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTracer:
    """Records the (file, line) pairs run in ``PACKAGE``.  A code object
    whose every line has run is no longer traced."""

    def __init__(self) -> None:
        self.ran: set[tuple[str, int]] = set()
        self._pending: dict[object, set[int]] = {}  # per code object: lines not yet run
        self._prefix = str(PACKAGE) + os.sep

    def _on_call(self, frame, event, arg):
        code = frame.f_code
        pending = self._pending.get(code)
        if pending is None:
            traced = os.path.realpath(code.co_filename).startswith(self._prefix)
            lines = (line for _, _, line in code.co_lines() if line is not None)
            pending = self._pending[code] = set(lines) if traced else set()
        if not pending:
            return None
        self._hit(code, pending, frame.f_lineno)
        return self._on_line

    def _on_line(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            self._hit(code, self._pending[code], frame.f_lineno)
        return self._on_line

    def _hit(self, code, pending: set[int], line: int) -> None:
        if line in pending:
            pending.discard(line)
            self.ran.add((os.path.realpath(code.co_filename), line))

    @contextlib.contextmanager
    def installed(self):
        sys.settrace(self._on_call)
        try:
            yield self
        finally:
            sys.settrace(None)


def untested(ran: set[tuple[str, int]]) -> list[str]:
    """``ces/<module>.py:<line>  <source>`` for every executable line not in ``ran``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - {n for f, n in ran if f == str(path)}):
            out.append(f"ces/{path.name}:{line}  {source[line - 1].strip()}")
    return out


def main(args: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    if not args:
        os.chdir(ROOT)  # pytest reads testpaths only when run from the rootdir
    import pytest

    with LineTracer().installed() as tracer, contextlib.redirect_stdout(sys.stderr):
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    for line in untested(tracer.ran):
        print(line)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
