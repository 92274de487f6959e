"""The four workloads: the argv each op hands to ``superpulse.cli.main``, the
inputs generated from the workload seed, and the checks on each op's output.

Only ``sweep`` uses the seed: it draws the swept ``omega0`` values.  The
program sees nothing of the seed; it receives the generated config file.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("comb", "dense_grid", "sweep", "oracle")

PRESET_OF = {"comb": "fig1", "dense_grid": "fig5"}

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Continuous pulse metrics at the seed commit differ from an rtol=1e-11
# solution by at most 5.4e-9 relative (fig1 envelope FWHM), so a correct
# change of arithmetic order or step sequence at the same tolerances stays
# near 1e-8.  1e-6 leaves a 200x margin and still catches any change that
# moves the physics.
PULSE_METRIC_RTOL = 1e-6
# delay_time is the grid time of the highest sample, so it moves in whole
# grid steps.  On fig5 the peak sample and its right neighbour differ by
# 6e-9 relative, so a correct change may land the peak one sample later.
DELAY_GRID_STEPS = 1
CONTINUOUS_METRICS = ("envelope_fwhm", "peak_intensity_scaled", "tau_1_measured",
                      "tau_c_measured")

# sweep: an omega0 sweep at N = 1e4 and g = 1e2 across the strong/weak
# crossover N*gamma/omega0 = 1e-2, i.e. omega0 = 1e6.  One point is drawn
# log-uniformly in each stratum of log10(omega0): three strong points
# (2.5k-10k DP5 steps each) and two weak closed-form points.  Narrow strata
# keep the op's cost nearly seed-independent.
SWEEP_N = 10_000
SWEEP_G = 100.0
SWEEP_STRATA = (5.2, 5.45, 5.7, 6.15, 6.4)
SWEEP_STRATUM_HALF_WIDTH = 0.025
STRONG_THRESHOLD_OMEGA0 = SWEEP_N / 1e-2
# headroom for rounding when a bound is recomputed in another operation order
ROUNDING_RTOL = 1e-12

ORACLE_N = 100
# `oracle --n 100` at the CLI's default window t_end = 40 ln(N)/N = 1.842
ORACLE_ROWS = 2001
# the default window leaves N^-40 of the population undecayed
ORACLE_RTOL = 1e-9


@dataclass(frozen=True)
class Inputs:
    argv: tuple[str, ...]            # everything but --out
    sweep_values: tuple[float, ...] = ()


def sweep_values(seed: int) -> list[float]:
    rng = random.Random(seed)
    half = SWEEP_STRATUM_HALF_WIDTH
    # ascending, as a user lists a sweep; the point order moves peak RSS
    return [10.0 ** (c + rng.uniform(-half, half)) for c in SWEEP_STRATA]


def make_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's inputs; the sweep config goes into workdir."""
    if workload in PRESET_OF:
        return Inputs(("preset", PRESET_OF[workload]))
    if workload == "oracle":
        return Inputs(("oracle", "--n", str(ORACLE_N)))
    values = sweep_values(seed)
    config = {
        "label": "sweep",
        "params": {"n_atoms": SWEEP_N, "omega0": 1e6, "g": SWEEP_G},
        "sweep": {"param": "omega0", "values": values},
    }
    path = workdir / "sweep.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return Inputs(("run", "--config", str(path)), tuple(values))


def _csv_rows(path: Path) -> int:
    """Data rows of a CSV with a header line and a trailing newline."""
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            lines += chunk.count(b"\n")
    return lines - 1


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def _check_preset(workload: str, out: Path) -> list[str]:
    ref = json.loads(REFERENCE_FILE.read_text())[workload]
    preset = PRESET_OF[workload]
    doc = json.loads((out / f"{preset}_metrics.json").read_text())
    got, want = doc["pulse_metrics"], ref["pulse_metrics"]
    problems = []
    if doc["samples"] != ref["samples"]:
        problems.append(f"samples {doc['samples']} != {ref['samples']}")
    if got["pulse_count_half_height"] != want["pulse_count_half_height"]:
        problems.append(f"pulse count {got['pulse_count_half_height']} != "
                        f"{want['pulse_count_half_height']}")
    for key in CONTINUOUS_METRICS:
        if not _close(got[key], want[key], PULSE_METRIC_RTOL):
            problems.append(f"{key} {got[key]!r} differs from {want[key]!r} "
                            f"by more than {PULSE_METRIC_RTOL:g} relative")
    spacing = doc["config"]["t_end"] / (doc["samples"] - 1)
    if abs(got["delay_time"] - want["delay_time"]) > DELAY_GRID_STEPS * spacing * 1.001:
        problems.append(f"delay_time {got['delay_time']!r} is more than "
                        f"{DELAY_GRID_STEPS} grid step from {want['delay_time']!r}")
    rows = _csv_rows(out / f"{preset}_trajectory.csv")
    if rows != doc["samples"]:
        problems.append(f"trajectory CSV has {rows} rows, metrics say {doc['samples']}")
    return problems


def _check_sweep_point(doc: dict) -> list[str]:
    p = doc["config"]["params"]
    n, omega0 = p["n_atoms"], p["omega0"]
    alpha = doc["derived_params"]["alpha"]
    peak = doc["pulse_metrics"]["peak_intensity_scaled"]
    label = doc["config"]["label"]
    expected = "strong" if omega0 <= STRONG_THRESHOLD_OMEGA0 else "weak"
    if p["regime"] != expected:
        return [f"{label}: regime {p['regime']} at omega0={omega0!r}, expected {expected}"]
    if expected == "strong":
        bound = n * (n - 1) * (1 + alpha) ** 2 / 4
        if peak > bound * (1 + ROUNDING_RTOL):
            return [f"{label}: strong peak {peak!r} exceeds N(N-1)(1+alpha)^2/4 = {bound!r}"]
        return []
    # the closed form peaks at t0; the nearest grid point is at most half a
    # grid step away, where sech^2 has dropped by at most this factor
    closed = ((1 + alpha) * n) ** 2 / 4
    tau_c = 2.0 / ((1 + alpha) * n)
    spacing = doc["config"]["t_end"] / (doc["samples"] - 1)
    floor = closed / math.cosh(spacing / (2 * tau_c)) ** 2
    if not floor * (1 - ROUNDING_RTOL) <= peak <= closed * (1 + ROUNDING_RTOL):
        return [f"{label}: weak peak {peak!r} outside the grid-sampled closed form "
                f"[{floor!r}, {closed!r}]"]
    return []


def _check_sweep(inputs: Inputs, out: Path) -> list[str]:
    docs = {}
    for path in sorted(out.glob("*_metrics.json")):
        docs[path] = json.loads(path.read_text())
    problems = []
    if len(docs) != len(inputs.sweep_values):
        problems.append(f"{len(inputs.sweep_values)} sweep points wrote {len(docs)} "
                        "metrics files (colliding labels overwrite each other)")
    swept = sorted(d["config"]["params"]["omega0"] for d in docs.values())
    if swept != sorted(inputs.sweep_values):
        problems.append(f"metrics files cover omega0 {swept}, "
                        f"expected {sorted(inputs.sweep_values)}")
    for path, doc in docs.items():
        problems.extend(_check_sweep_point(doc))
        csv = path.with_name(path.name.replace("_metrics.json", "_trajectory.csv"))
        if _csv_rows(csv) != doc["samples"]:
            problems.append(f"{csv.name} row count differs from samples={doc['samples']}")
    return problems


def _check_oracle(out: Path) -> list[str]:
    doc = json.loads((out / f"oracle_n{ORACLE_N}_summary.json").read_text())
    problems = []
    if not _close(doc["quanta_emitted"], ORACLE_N, ORACLE_RTOL):
        problems.append(f"quanta_emitted {doc['quanta_emitted']!r} != N = {ORACLE_N}")
    if not _close(doc["final_mean_m"], -ORACLE_N / 2, ORACLE_RTOL):
        problems.append(f"final_mean_m {doc['final_mean_m']!r} != -N/2")
    rows = _csv_rows(out / f"oracle_n{ORACLE_N}_trajectory.csv")
    if rows != ORACLE_ROWS:
        problems.append(f"oracle trajectory has {rows} rows, expected {ORACLE_ROWS}")
    return problems


def check(workload: str, inputs: Inputs, out: Path) -> list[str]:
    """Problems found in one op's output directory; empty when it is correct."""
    try:
        if workload in PRESET_OF:
            return _check_preset(workload, out)
        if workload == "sweep":
            return _check_sweep(inputs, out)
        return _check_oracle(out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
