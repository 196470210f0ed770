"""Line coverage of src/mlnsim under the Tier-1 tests, from the standard library alone.

    python tools/linecov.py [pytest arguments]

Runs pytest in this process with a ``sys.settrace`` hook, set for new threads
too through ``threading.settrace``, that records the lines executed in
src/mlnsim. Then prints, per file, the executable lines that never ran. It is
a report, not a gate: what it finds never changes its exit status, which is
pytest's. Tests that run code in a subprocess (the demos, the no-scipy check)
are not traced, so lines that only they reach are listed.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mlnsim"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in the module at path or in any code nested in it."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9, 12"."""
    runs = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None  # no line events for code outside the package
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))  # the traced source, not an installed copy
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print("\nLines of src/mlnsim that Tier-1 never executed in this process.")
    print("Tests that run code in a subprocess (the demos, the no-scipy check) are not traced.")
    missed_total = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        total += len(lines)
        missed_total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)}: {_ranges(missed)}")
    print(f"{missed_total} of {total} executable lines never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
