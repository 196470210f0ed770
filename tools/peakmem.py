"""Peak memory of each CLI stage of a preset, from the standard library alone.

    python tools/peakmem.py [--preset NAME] [CLI arguments ...]

Runs ``mlnsim <stage> --preset NAME`` for each stage of ``reproduce`` (in
``mlnsim.config.STAGES``), each in a fresh interpreter on the source tree, and
prints the stage's peak resident set size: its ``ru_maxrss`` as ``os.wait4``
reports it for that child alone. Further arguments go to every stage (for
example ``--trials 2000 --max-trials 20000``). The first row is an interpreter
that only imports the package, the floor under every stage. Each stage writes
its output to a temporary directory of its own, deleted when it exits, so the
tree stays clean. It is a report, not a gate: the exit status is 1 only when a
stage exits with a status other than 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ru_maxrss is in KiB on Linux and in bytes on macOS
_RSS_PER_MIB = 2**20 if sys.platform == "darwin" else 2**10


def run(argv: list[str]) -> tuple[int, float, float, str]:
    """Run python argv in a fresh interpreter on src/; return its exit code, peak RSS (MiB), wall time and stdout."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}  # an empty entry would add the cwd
    start = time.perf_counter()
    with tempfile.TemporaryFile() as out:
        proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode()
    return proc.returncode, usage.ru_maxrss / _RSS_PER_MIB, time.perf_counter() - start, text


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--preset", default="example1")
    args, extra = parser.parse_known_args(argv)

    code, rss, wall, text = run(["-c", "import mlnsim.cli; print(*mlnsim.config.STAGES['reproduce'])"])
    if code != 0:
        print(f"importing mlnsim failed with exit status {code}", file=sys.stderr)
        return 1
    print(f"{'stage':<14} {'peak_rss_mb':>11} {'wall_s':>7} {'exit':>4}")
    print(f"{'(import)':<14} {rss:11.1f} {wall:7.2f} {code:4d}")
    failed = False
    for stage in text.split():
        with tempfile.TemporaryDirectory() as out:
            code, rss, wall, _ = run(["-m", "mlnsim.cli", stage, "--preset", args.preset, "--out", out, *extra])
        failed |= code != 0
        print(f"{stage:<14} {rss:11.1f} {wall:7.2f} {code:4d}", flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
