"""Command-line interface.

    simulate preset fig1 --out results/
    simulate run --config sweep.json --out results/
    simulate oracle --n 10 --gamma-eff 1.0 --out results/

Exit codes: 0 success, 2 validation error, 3 integration failure,
4 I/O error.
"""
from __future__ import annotations

import argparse
import sys

from .errors import (
    ConfigError,
    EmptyAnalysisError,
    IntegrationFailure,
    ParameterDomainError,
    SampleBudgetError,
    StepSizeError,
)
from .ladder import evolve_ladder
from .runner import PRESETS, run_config, run_preset, write_oracle

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTEGRATION = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Collective-emission simulator for dense two-level samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pre = sub.add_parser("preset", help="run a built-in figure preset")
    pre.add_argument("name", choices=sorted(PRESETS))
    _add_run_options(pre)

    run = sub.add_parser("run", help="run from a JSON configuration file")
    run.add_argument("--config", required=True, help="path to the config file")
    _add_run_options(run)

    orc = sub.add_parser("oracle", help="exact symmetric-ladder cascade at small N")
    orc.add_argument("--n", type=int, required=True, help="number of atoms")
    orc.add_argument("--gamma-eff", type=float, default=1.0,
                     help="effective dissipative factor in units of gamma")
    orc.add_argument("--omega-ratio", type=float, default=1.0,
                     help="emitted quantum energy over omega0 (1+alpha)")
    orc.add_argument("--t-end", type=float, default=None,
                     help="run length in gamma*t (default: long enough to decay)")
    orc.add_argument("--out", default=".", help="output directory")
    return parser


def _add_run_options(sp: argparse.ArgumentParser):
    sp.add_argument("--out", default=None,
                    help="output directory (default: the config's outputs.directory, else .)")
    sp.add_argument("--rtol", type=float, default=None, help="relative tolerance")
    sp.add_argument("--t-end", type=float, default=None, help="window length in gamma*t")
    sp.add_argument("--theta0", type=float, default=None, help="initial polar angle")
    sp.add_argument("--phi0", type=float, default=None, help="initial azimuth")


def _run_oracle(args) -> int:
    run = evolve_ladder(args.n, args.gamma_eff, args.t_end, omega_ratio=args.omega_ratio)
    csv_path = write_oracle(args.out, run)
    print(f"oracle: wrote {csv_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "oracle":
            return _run_oracle(args)
        overrides = dict(
            out_dir=args.out, rtol=args.rtol, t_end=args.t_end, theta0=args.theta0, phi0=args.phi0
        )
        if args.command == "preset":
            results = [run_preset(args.name, **overrides)]
        else:
            results = run_config(args.config, **overrides)
        for r in results:
            print(f"{r.label}: wrote {' and '.join(map(str, r.written))}")
    except (ParameterDomainError, ConfigError, EmptyAnalysisError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # a sample budget past memory ends in numpy's MemoryError when the grid is allocated
    except (IntegrationFailure, SampleBudgetError, StepSizeError, MemoryError) as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
