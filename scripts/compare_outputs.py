#!/usr/bin/env python3
"""Check that the working tree writes the same files as a git revision.

Usage:
    python scripts/compare_outputs.py [REV]      (REV defaults to HEAD)

Unpacks REV's src/ with `git archive`, then runs `simulate preset fig1`
... `fig8`, `simulate preset fig5 --t-end 9.9e-8` (1.98M samples, just
under the default sample budget), `simulate run --config` on the seed-1
perfbench sweep config, the same config with `--t-end 3e-3 --phi0 0.25`,
`simulate preset fig2 --t-end 2e-4 --theta0 0.01 --phi0 0.3 --rtol 1e-8`,
`simulate preset fig7 --t-end 1e-3 --phi0 0.5`, two configs that override
the regime classifier (CLASSIFIER_OVERRIDES: the weak closed form at
fig1's parameters, the strong equations at a weak-classified point) and
`simulate oracle --n 10` and `--n 100`, plus ten commands the program
must refuse (REFUSALS) and a config it must refuse (a Dicke limit with
g > 0), under REV's package and under the working tree's, each command in
its own subprocess and fresh output directory.  Every file written is
compared byte for byte.  Exits 1 when a command's exit code is not the
expected one on either side, its stdout or stderr differs, a refused
command writes a file, or any file differs or exists on one side only.
A differing CSV's line also counts the rows that differ and gives, per
column, the largest difference over the column's largest magnitude.  The
summary line also gives the line count of src/**/*.py in both trees.
"""
from __future__ import annotations

import filecmp
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

import numpy as np  # noqa: E402

from perfbench.workloads import make_inputs  # noqa: E402

# commands that must fail, each with its exit code (2 validation, 3 integration)
REFUSALS = [
    (["preset", "fig2", "--theta0", "3.141592653589793"], 2),
    (["preset", "fig7", "--theta0", "0.5"], 2),
    (["preset", "fig7", "--t-end", "1e300"], 3),
    (["oracle", "--n", "10", "--t-end", "1e6"], 2),
    (["oracle", "--n", "2001"], 2),
    (["preset", "fig1", "--rtol", "0"], 2),
    (["preset", "fig1", "--t-end", "-1"], 2),
    (["oracle", "--n", "10", "--gamma-eff", "0"], 2),
    (["oracle", "--n", "10", "--omega-ratio", "nan"], 2),
    (["oracle", "--n", "10", "--t-end", "-1"], 2),
]

# config documents that set the regime against N*gamma/omega0's classification
CLASSIFIER_OVERRIDES = {
    "weak_fig1": {"params": {"n_atoms": 10_000, "omega0": 1e6, "g": 100}, "regime": "weak"},
    "strong_weak_point": {"params": {"n_atoms": 10_000, "omega0": 2.5e6, "g": 100},
                          "regime": "strong", "t_end": 2e-4},
}
# a config document that must be refused with exit 2: the Dicke limit needs g = 0
DICKE_WITH_G = {"params": {"n_atoms": 10_000, "omega0": 1e6, "g": 100}, "regime": "dicke"}


def write_config(path: Path, doc: dict) -> list[str]:
    """The argv of `simulate run` on doc, written as JSON to path."""
    path.write_text(json.dumps(doc))
    return ["run", "--config", str(path)]


def unpack_src(rev: str, dest: Path) -> Path:
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"],
        cwd=REPO, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest / "src"


def src_lines(src: Path) -> int:
    """Lines in the tree's Python sources, as `wc -l` counts them."""
    return sum(f.read_bytes().count(b"\n") for f in src.rglob("*.py"))


def csv_difference(a: Path, b: Path) -> str:
    """How two CSVs with one header line differ: rows, and per column the relative size."""
    lines_a, lines_b = (f.read_bytes().splitlines() for f in (a, b))
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a) - 1} rows against {len(lines_b) - 1}"
    n_rows = sum(x != y for x, y in zip(lines_a[1:], lines_b[1:]))
    header = lines_a[0].decode().split(",")
    x, y = (np.loadtxt(f, delimiter=",", skiprows=1, ndmin=2) for f in (a, b))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.max(np.abs(x - y), axis=0) / np.max(np.abs(x), axis=0)
    columns = ", ".join(f"{name} {r:.2g}" for name, r in zip(header, rel))
    return f"{n_rows} of {len(lines_a) - 1} rows; largest relative difference {columns}"


def run(src: Path, argv: list[str], out: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call, the output directory masked."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "superpulse.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    return (proc.returncode, proc.stdout.replace(str(out), "<out>"),
            proc.stderr.replace(str(out), "<out>"))


def main(rev: str) -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {rev: unpack_src(rev, tmp / "rev"), "working tree": REPO / "src"}
        lines = {side: src_lines(src) for side, src in trees.items()}
        commands = [["preset", f"fig{i}"] for i in range(1, 9)]
        # many dense-fill blocks and a partial last one
        commands.append(["preset", "fig5", "--t-end", "9.9e-8"])
        sweep = list(make_inputs("sweep", 1, tmp).argv)
        commands.append(sweep)
        # run flags that replace the values of a config file, a strong and a weak preset
        commands += [
            sweep + ["--t-end", "3e-3", "--phi0", "0.25"],
            ["preset", "fig2", "--t-end", "2e-4", "--theta0", "0.01", "--phi0", "0.3",
             "--rtol", "1e-8"],
            ["preset", "fig7", "--t-end", "1e-3", "--phi0", "0.5"],
        ]
        commands += [write_config(tmp / f"{label}.json", {"label": label, **doc})
                     for label, doc in CLASSIFIER_OVERRIDES.items()]
        commands += [["oracle", "--n", "10"], ["oracle", "--n", "100"]]
        commands = [(argv, 0) for argv in commands] + REFUSALS
        commands.append((write_config(tmp / "dicke_with_g.json", DICKE_WITH_G), 2))

        problems = []
        n_files = n_same = 0
        for i, (argv, expected) in enumerate(commands):
            outs = {side: tmp / side.replace(" ", "_") / str(i) for side in trees}
            results = {side: run(src, argv, outs[side]) for side, src in trees.items()}
            name = " ".join(argv).replace(str(tmp), "<tmp>")
            codes = [code for code, _, _ in results.values()]
            if any(code != expected for code in codes):
                problems.append(f"{name}: exit codes {codes}, expected {expected}")
                for _, _, stderr in results.values():
                    sys.stderr.write(stderr)
            for k, stream in ((1, "stdout"), (2, "stderr")):
                if len({result[k] for result in results.values()}) != 1:
                    problems.append(f"{name}: {stream} differs")
            a, b = (sorted(p.name for p in out.glob("*")) if out.exists() else []
                    for out in outs.values())
            if expected != 0 and (a or b):
                problems.append(f"{name}: refused, yet wrote {sorted(set(a) | set(b))}")
            for f in sorted(set(a) ^ set(b)):
                problems.append(f"{name}: {f} written on one side only")
            for f in sorted(set(a) & set(b)):
                n_files += 1
                if filecmp.cmp(*(out / f for out in outs.values()), shallow=False):
                    n_same += 1
                elif f.endswith(".csv"):
                    problems.append(f"{name}: {f} differs ("
                                    f"{csv_difference(*(out / f for out in outs.values()))})")
                else:
                    problems.append(f"{name}: {f} differs")

    for line in problems:
        print(f"DIFF {line}")
    print(f"{n_same} of {n_files} files identical to {rev}, {len(commands)} commands,"
          f" {time.perf_counter() - start:.0f} s; src/ lines: {rev} {lines[rev]},"
          f" working tree {lines['working tree']}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "HEAD"))
