#!/usr/bin/env python3
"""Check that the working tree writes the same files as a git revision.

Usage:
    python scripts/compare_outputs.py [REV]      (REV defaults to HEAD)

Unpacks REV's src/ with `git archive`, then runs `simulate preset fig1`
... `fig8`, `simulate preset fig5 --t-end 9.9e-8` (1.98M samples, just
under the default sample budget), `simulate run --config` on the seed-1
perfbench sweep config and `simulate oracle --n 10` and `--n 100` under
REV's package and under the working tree's, each command in its own
subprocess and fresh output directory.  Every file written is compared
byte for byte.  Exits 1 when a command fails, its stdout differs, or any
file differs or exists on one side only.
"""
from __future__ import annotations

import filecmp
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

from perfbench.workloads import make_inputs  # noqa: E402


def unpack_src(rev: str, dest: Path) -> Path:
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"],
        cwd=REPO, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest / "src"


def run(src: Path, argv: list[str], out: Path) -> tuple[int, str]:
    """Exit code and stdout of one CLI call, the output directory masked."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "superpulse.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.replace(str(out), "<out>")


def main(rev: str) -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {rev: unpack_src(rev, tmp / "rev"), "working tree": REPO / "src"}
        commands = [["preset", f"fig{i}"] for i in range(1, 9)]
        # many dense-fill blocks and a partial last one
        commands.append(["preset", "fig5", "--t-end", "9.9e-8"])
        commands.append(list(make_inputs("sweep", 1, tmp).argv))
        commands += [["oracle", "--n", "10"], ["oracle", "--n", "100"]]

        problems = []
        n_files = n_same = 0
        for i, argv in enumerate(commands):
            outs = {side: tmp / side.replace(" ", "_") / str(i) for side in trees}
            results = {side: run(src, argv, outs[side]) for side, src in trees.items()}
            name = " ".join(argv).replace(str(tmp), "<tmp>")
            if any(code != 0 for code, _ in results.values()):
                problems.append(f"{name}: exit codes {[c for c, _ in results.values()]}")
            if len({stdout for _, stdout in results.values()}) != 1:
                problems.append(f"{name}: stdout differs")
            a, b = (sorted(p.name for p in out.glob("*")) if out.exists() else []
                    for out in outs.values())
            for f in sorted(set(a) ^ set(b)):
                problems.append(f"{name}: {f} written on one side only")
            for f in sorted(set(a) & set(b)):
                n_files += 1
                if filecmp.cmp(*(out / f for out in outs.values()), shallow=False):
                    n_same += 1
                else:
                    problems.append(f"{name}: {f} differs")

    for line in problems:
        print(f"DIFF {line}")
    print(f"{n_same} of {n_files} files identical to {rev}, {len(commands)} commands,"
          f" {time.perf_counter() - start:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "HEAD"))
