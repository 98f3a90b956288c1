#!/usr/bin/env python3
"""Print the sha256 of every artifact that the bench workloads write.

Usage, from the repository root:

    python3 tools/artifact_hashes.py                      # both workloads, seed 1
    python3 tools/artifact_hashes.py --workload latent --seed 3

Each command of `bench/workloads.build(workload, seed, <temporary dir>)` runs
once, in order, through `bench/run.run_command` (`latentvqe.cli.main`, stdout
captured and discarded). Then
one line per file that the step wrote, manifests left out, as
`bench/checks.artifact_hashes` reports it:

    <workload> <step> <path relative to the run directory> <sha256>

Run it in two checkouts and `diff` the outputs: no difference means every
artifact is byte-identical. Exits 1, after the remaining lines, if a command
exits non-zero.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import workloads  # noqa: E402
from run import run_command  # noqa: E402


def workload_hashes(workload: str, seed: int) -> tuple[list[str], list[str]]:
    """(hash lines, names of steps whose command exited non-zero) of one workload."""
    lines, failed = [], []
    with tempfile.TemporaryDirectory(prefix="artifact-hashes-") as tmp:
        root = Path(tmp)
        for step in workloads.build(workload, seed, root):
            if run_command(step)[0] != 0:
                failed.append(step.name)
            for rel, digest in checks.artifact_hashes(step, root).items():
                lines.append(f"{workload} {step.name} {rel} {digest}")
    return lines, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    failed = []
    for name in workloads.NAMES if args.workload == "all" else (args.workload,):
        lines, bad = workload_hashes(name, args.seed)
        print("\n".join(lines))
        failed += [f"{name} {step}" for step in bad]
    for step in failed:
        print(f"command failed: {step}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
