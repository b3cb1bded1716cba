"""Record the exit code and stdout digest of every request verify_mix can make.

    python3 benchmarks/record_outcomes.py

Runs each of the 14 subcommands on every (b, sinphi) of the verify_mix grids
and rewrites ``verify_mix_outcomes.json``.  The benchmark compares every
request it makes against this record, so rerun it only in a change whose
purpose is to accept new CLI output, and say why in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main() -> None:
    record: dict[str, list] = {}
    failures: dict[str, int] = {}
    for command in workloads.CLI_COMMANDS:
        for b in workloads.B_GRID:
            for sinphi in workloads.SINPHI_GRID:
                argv = workloads.cli_argv(command, b, sinphi)
                key = " ".join(argv)
                if key in record:
                    continue
                code, text, _, error = workloads.run_cli(list(argv))
                if error is not None:
                    raise SystemExit(f"{key}: raises {error}")
                record[key] = [code, workloads.stdout_digest(text)]
                if code:
                    label = f"{' '.join(command)}: exit {code}"
                    failures[label] = failures.get(label, 0) + 1
    with open(workloads.OUTCOMES_PATH, "w", encoding="ascii") as handle:
        json.dump(record, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"{len(record)} outcomes recorded; nonzero exits: {failures or 'none'}")


if __name__ == "__main__":
    main()
