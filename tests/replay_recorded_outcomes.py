"""Replay every recorded ``multiagm`` command and compare its outcome.

``benchmarks/verify_mix_outcomes.json`` holds the exit code and the stdout
digest of every command the verify_mix benchmark can issue.  This script
runs each of them in-process and exits 1, listing the mismatches, if any
exit code or digest differs.  Run it from the repository root:

    python3 tests/replay_recorded_outcomes.py

Its name does not match ``test_*.py``, so pytest does not collect it; the
full replay takes about a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from workloads import load_outcomes, run_cli, stdout_digest  # noqa: E402


def main() -> int:
    outcomes = load_outcomes()
    mismatches = []
    for argv, (code, digest) in outcomes.items():
        got_code, text, _, error = run_cli(argv.split())
        got = [got_code, stdout_digest(text)]
        if got != [code, digest] or error is not None:
            mismatches.append(f"{argv}: recorded {[code, digest]}, got {got}" + (f" ({error})" if error else ""))
    for line in mismatches:
        print(line)
    print(f"{len(outcomes)} recorded commands replayed, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
