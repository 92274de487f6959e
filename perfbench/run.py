"""Benchmark of the superpulse simulator through its command line.

    python3 perfbench/run.py --workload comb --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  Each op is one in-process ``superpulse.cli.main([...])`` call,
which is what a user runs.  One client drives a closed loop: the next op
starts when the previous one has ended and its output has been checked,
until ``--seconds`` have passed.  An op fails on a non-zero exit code, an
exception or a failed output check.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced ops with traced ones and prints the per-layer metrics of the
traced op with the median time.  The last stdout line is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when any op failed.  See README.md in this directory.
"""
from __future__ import annotations

import os
import sys

# one thread per numeric library, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# leave no __pycache__ behind in the checkout
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import filecmp  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# setup_s is the median of this many fresh interpreters
SETUP_PROBES = 5
# op_s.tail is the highest percentile with this many ops beyond it
TAIL_BEYOND = 10
# failed ops whose problems go to stderr; a program failing fast fails every op
REPORTED_FAILURES = 5


def import_cli():
    """Import superpulse.cli from the checkout's src/ and nowhere else."""
    if not (SRC / "superpulse" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    from superpulse import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's")
    return cli


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median time from interpreter start to package imported and inputs made."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"setup{k}"
        probe_dir.mkdir()
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
               "--setup-probe", str(probe_dir)]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(probe_dir)
    return statistics.median(times)


def run_op(cli, workload, inputs, out: Path, around=contextlib.nullcontext):
    """One op into a fresh directory: (seconds, problems)."""
    out.mkdir()
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stream):
        with around():
            t0 = time.perf_counter()
            try:
                rc = cli.main([*inputs.argv, "--out", str(out)])
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a traceback fails the op, not the benchmark
                rc = None
                traceback.print_exc()
            seconds = time.perf_counter() - t0
    if rc != 0:
        return seconds, [f"exit code {rc}: {stream.getvalue().strip()[-2000:]}"]
    return seconds, workloads.check(workload, inputs, out)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the nearest-rank percentile with TAIL_BEYOND ops
    above it, once that percentile is at least the median; else the slowest op."""
    ranked = sorted(times)
    n = len(ranked)
    if n >= 2 * TAIL_BEYOND:
        return ranked[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return ranked[-1], 100.0


def report_problems(op: str, problems: list[str], failed: int):
    if failed > REPORTED_FAILURES:
        return
    for p in problems:
        print(f"perfbench: {op} failed: {p}", file=sys.stderr)


def run_untraced(cli, workload, inputs, seconds, workdir):
    times, failed = [], 0
    deadline = time.perf_counter() + seconds
    while True:
        out = workdir / f"op{len(times)}"
        dt, problems = run_op(cli, workload, inputs, out)
        shutil.rmtree(out)
        times.append(dt)
        failed += bool(problems)
        report_problems(f"op {len(times) - 1}", problems, failed)
        if time.perf_counter() >= deadline:
            return times, failed


def _canonical_metrics(docs) -> list[str]:
    return sorted(json.dumps(d, sort_keys=True) for d in docs)


def compare_outputs(plain: Path, traced: Path, pulse_metrics: list) -> list[str]:
    """Problems if the traced op's outputs differ from the untraced op's."""
    names = sorted(p.name for p in plain.iterdir())
    if names != sorted(p.name for p in traced.iterdir()):
        return ["traced and untraced ops wrote different files"]
    problems = [f"{n} differs between traced and untraced op" for n in names
                if not filecmp.cmp(plain / n, traced / n, shallow=False)]
    untraced_metrics = [json.loads((plain / n).read_text())["pulse_metrics"]
                        for n in names if n.endswith("_metrics.json")]
    traced_metrics = []
    for m in pulse_metrics:
        doc = dataclasses.asdict(m)
        doc.pop("predictions")
        traced_metrics.append(doc)
    if _canonical_metrics(traced_metrics) != _canonical_metrics(untraced_metrics):
        problems.append("traced PulseMetrics differ from the untraced op's metrics")
    return problems


def run_traced(cli, workload, inputs, seconds, workdir):
    tracer = spans.Tracer()
    untraced, per_op, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        op = len(per_op)
        plain, traced = workdir / f"plain{op}", workdir / f"traced{op}"
        dt, problems = run_op(cli, workload, inputs, plain)
        untraced.append(dt)
        failed += bool(problems)
        report_problems(f"untraced op {op}", problems, failed)

        _, problems = run_op(cli, workload, inputs, traced, lambda: tracer.op(op))
        if not problems:
            problems = compare_outputs(plain, traced, tracer.pulse_metrics[op])
        failed += bool(problems)
        report_problems(f"traced op {op}", problems, failed)
        shutil.rmtree(plain)
        shutil.rmtree(traced)

        m = spans.layer_metrics(tracer, op)
        accounted = m["unattributed_s"] + sum(
            v for k, v in m.items() if k.startswith("self_s."))
        if abs(accounted - m["traced_op_s"]) > 1e-9 * max(1.0, m["traced_op_s"]):
            raise RuntimeError(f"self times sum to {accounted}, op took {m['traced_op_s']}")
        per_op.append(m)
        if time.perf_counter() >= deadline:
            break
    metrics = dict(spans.median_op(per_op))
    metrics["trace_overhead_s"] = (statistics.median(m["traced_op_s"] for m in per_op)
                                   - statistics.median(untraced))
    if tracer.missing:
        print(f"perfbench: layer calls not found: {tracer.missing}", file=sys.stderr)
    print(json.dumps({"spans": tracer.dump()}), file=sys.stderr)
    return metrics, 2 * len(per_op), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        import_cli()
        workloads.make_inputs(args.workload, args.seed, Path(args.setup_probe))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = import_cli()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        inputs = workloads.make_inputs(args.workload, args.seed, workdir)
        if args.trace:
            wanted = spec["per_layer"]
            metrics, attempted, failed = run_traced(
                cli, args.workload, inputs, args.seconds, workdir)
        else:
            wanted = spec["end_to_end"]
            setup_s = measure_setup(args.workload, args.seed, workdir)
            times, failed = run_untraced(cli, args.workload, inputs, args.seconds, workdir)
            attempted = len(times)
            tail_s, tail_pct = tail(times)
            metrics = {
                "setup_s": setup_s,
                "op_s.p50": statistics.median(times),
                "op_s.tail": tail_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            print(f"op_s.tail is p{tail_pct:.4g} of {attempted} ops "
                  f"({attempted - round(attempted * tail_pct / 100)} beyond it)")
            print(f"fail_ratio {failed / attempted:.6g}")

    result = {}
    for m in wanted:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:34s} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
