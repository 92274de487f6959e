"""Configuration ingestion, figure presets, batch execution and serialization.

Trajectories go to CSV (one row per grid point, 17 significant digits so
values round-trip exactly, formatted a block of rows at a time by
``_g17.format_rows``); metrics go to a JSON document embedding the
derived parameters, the measured pulse statistics, integrator stats and
the fully resolved configuration.  The exact-cascade oracle writes its
trajectory and summary through the same writers.  Every file is written
atomically.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .bloch import (
    BlochState,
    BlochTrajectory,
    IntegrationControl,
    RunConfig,
    default_initial_state,
    default_t_end,
)
from ._g17 import format_rows
from .errors import ConfigError, EmptyAnalysisError, ParameterDomainError, SampleBudgetError
from .ladder import LadderRun
from .observables import emission_arrays
from .params import DerivedParams, Regime, SampleParams, derive_params
from .pulses import (
    NO_EMISSION,
    PROMINENCE_FRACTION,
    SECH2_FWHM_FACTOR,
    PulseMetrics,
    compute_metrics,
)
from .strong import integrate_strong
from .weak import sample_weak_solution

TRAJECTORY_HEADER = "gamma_t,theta,phi,energy_over_omega0,intensity_over_gamma_omega0"
ORACLE_HEADER = "gamma_t,mean_m,intensity_over_gamma_omega0"

# output files a run can write: the trajectory CSV and the metrics JSON
FORMATS = ("csv", "json")

# rows per formatted CSV block: the formatter's temporaries take about 190 bytes
# per value; 800 rows formatted fastest, and 2,000 fell off a cache cliff
_CSV_BLOCK_ROWS = 800

MEASUREMENT_DEFINITIONS = {
    "envelope": "piecewise-linear interpolation through superpulse peaks",
    "tau_c_measured": "envelope FWHM / (2*acosh(sqrt(2)))",
    "tau_1_measured": "median FWHM of superpulses at half height of the envelope",
    "pulse_count_half_height": "superpulses whose peak >= half the envelope maximum",
    "delay_time": "time of the envelope maximum",
    "prominence_filter": f"prominence >= {PROMINENCE_FRACTION:g} of global maximum",
    "sech2_fwhm_factor": SECH2_FWHM_FACTOR,
}


PRESETS: dict[str, SampleParams] = {
    "fig1": SampleParams(10_000, 1e6, 1e2, regime=Regime.STRONG),
    "fig2": SampleParams(10_000, 1e5, 1e2, regime=Regime.STRONG),
    "fig3": SampleParams(10_000, 1e6, 1e3, regime=Regime.STRONG),
    "fig4": SampleParams(1_000_000, 1e6, 1e2, regime=Regime.STRONG),
    "fig5": SampleParams(10_000_000, 1e6, 1e2, regime=Regime.STRONG),
    "fig6": SampleParams(10_000, 1e6, 0.0, regime=Regime.STRONG),
    "fig7": SampleParams(10_000, 1e6, 0.0, regime=Regime.DICKE_LIMIT),
    "fig8": SampleParams(10_000, 1e3, 0.0, regime=Regime.STRONG),
}


@dataclass(frozen=True)
class RunResult:
    label: str
    trajectory_path: Path | None   # None when "csv" is not among the formats
    metrics_path: Path | None      # None when "json" is not among the formats
    metrics: PulseMetrics

    @property
    def written(self) -> list[Path]:
        return [p for p in (self.trajectory_path, self.metrics_path) if p is not None]


# ---------------------------------------------------------------------------
# config file parsing

_REGIME_NAMES = {r.value: r for r in Regime}


def _require_keys(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _section(doc: dict, name: str, allowed: set[str], required=()) -> dict:
    """doc[name] as an object with only allowed keys and every required one; {} if absent."""
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"'{name}' must be an object")
    _require_keys(sec, allowed, name)
    for key in required:
        if key not in sec:
            raise ConfigError(f"missing required key '{name}.{key}'")
    return sec


def _number(v, name: str):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{name} must be a number, got {v!r}")
    return v


def parse_config(
    doc: dict,
    base_dir: Path = Path("."),
    out_dir: str | Path | None = None,
    rtol: float | None = None,
    t_end: float | None = None,
    theta0: float | None = None,
    phi0: float | None = None,
) -> list[RunConfig]:
    """Validate a configuration document; returns one resolved RunConfig per sweep value.

    The keywords are the CLI's run flags.  Each replaces the document's value
    once that value has been checked, and a default fills only what neither
    sets: the output directory is base_dir, the window default_t_end and the
    initial state default_initial_state.
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    _require_keys(
        doc,
        {"params", "regime", "label", "init", "t_end", "integration", "outputs", "sweep"},
        "config",
    )
    if "params" not in doc:
        raise ConfigError("missing required key 'params'")
    pd = _section(doc, "params", {"n_atoms", "omega0", "g", "gamma"}, ("n_atoms", "omega0"))
    pd = {key: _number(v, f"params.{key}") for key, v in pd.items()}

    regime = None
    if "regime" in doc:
        name = doc["regime"]
        if not isinstance(name, str) or name not in _REGIME_NAMES:
            raise ConfigError(
                f"regime must be one of {sorted(_REGIME_NAMES)}, got {name!r}"
            )
        regime = _REGIME_NAMES[name]

    idoc = _section(doc, "init", {"theta0", "phi0"})
    idoc = {key: _number(v, f"init.{key}") for key, v in idoc.items()}

    controls = ("rtol", "atol", "max_samples", "max_step")
    cdoc = _section(doc, "integration", set(controls))
    integration = IntegrationControl(
        **{key: _number(cdoc[key], f"integration.{key}") for key in controls if key in cdoc}
    )
    if rtol is not None:
        integration = replace(integration, rtol=rtol)

    formats = FORMATS
    odoc = _section(doc, "outputs", {"directory", "formats"})
    directory = odoc.get("directory", "")
    if not isinstance(directory, str):
        raise ConfigError("outputs.directory must be a string")
    if "\0" in directory:
        raise ConfigError(f"must not contain NUL, got {directory!r}", field="outputs.directory")
    out_dir = base_dir / directory if out_dir is None else Path(out_dir)
    if "formats" in odoc:
        fmts = odoc["formats"]
        if not isinstance(fmts, list) or not fmts or any(f not in FORMATS for f in fmts):
            raise ConfigError(
                f"outputs.formats must be a non-empty list drawn from {list(FORMATS)}"
            )
        formats = tuple(f for f in FORMATS if f in fmts)

    doc_t_end = _number(doc["t_end"], "config.t_end") if "t_end" in doc else None
    t_end = doc_t_end if t_end is None else t_end
    base_label = doc.get("label", "run")
    if not isinstance(base_label, str):
        raise ConfigError("'label' must be a string")
    # the label prefixes each output file name inside the output directory
    if "/" in base_label or "\0" in base_label:
        raise ConfigError(f"must not contain '/' or NUL, got {base_label!r}", field="label")

    sp = None
    points = [pd]
    if "sweep" in doc:
        sdoc = _section(doc, "sweep", {"param", "values"}, ("param", "values"))
        sp = sdoc["param"]
        if sp not in ("n_atoms", "omega0", "g"):
            raise ConfigError(f"sweep.param must be one of n_atoms/omega0/g, got {sp!r}")
        values = sdoc["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep.values must be a non-empty list")
        points = [{**pd, sp: _number(v, "sweep value")} for v in values]

    configs = []
    swept_value: dict[str, float] = {}
    for params_doc in points:
        params = SampleParams(regime=regime, **params_doc)
        label = base_label
        if sp is not None:
            v = params_doc[sp]
            label = f"{base_label}_{sp}{v:g}"
            if label in swept_value:
                raise ConfigError(
                    f"sweep values {swept_value[label]!r} and {v!r} share the output label"
                    f" {label!r}; the second run would overwrite the first",
                    field="sweep.values",
                )
            swept_value[label] = v
        init = default_initial_state(params)
        # the file's angles are checked, then the flags' replace them
        for theta, phi in ((idoc.get("theta0"), idoc.get("phi0")), (theta0, phi0)):
            # a weak-like run evaluates the closed form, which starts at the
            # default angle and takes only phi0: a theta0 is rejected, not ignored
            if theta is not None and params.regime.is_weak_like():
                raise ParameterDomainError(
                    "theta0", f"a {params.regime.value} run starts on the closed form at the"
                    f" default angle; got an override of {theta!r}"
                )
            init = BlochState(init.theta if theta is None else theta,
                              init.phi if phi is None else phi)
        run_t_end = t_end
        if run_t_end is None:  # neither the file nor a flag sets the window
            run_t_end = default_t_end(params)
            if not math.isfinite(run_t_end):  # a phase lock past about 1e161
                raise SampleBudgetError(run_t_end, integration.max_samples)
        configs.append(RunConfig(params, label, init, run_t_end, integration, out_dir, formats))
    return configs


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object's members as a dict; a key given twice is refused, not overwritten."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_config(path: str | Path, **overrides) -> list[RunConfig]:
    """parse_config of the JSON file at path, whose outputs.directory is relative to it."""
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    # undecodable bytes, a too-long integer literal, a repeated key or too deep a nesting
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(doc, path.parent, **overrides)


# ---------------------------------------------------------------------------
# serialization

def _atomic_write(path: Path, chunks):
    """Write the byte chunks to path, or nothing if writing or a chunk fails."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # mode 0o666 under the umask, as open() would give the file itself
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, doc: dict):
    _atomic_write(path, [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()])


def write_trajectory_csv(path: Path, *columns, header: str = TRAJECTORY_HEADER):
    """One header line, then one row per sample, each value as ``'%.17g' % v``."""
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")

    def chunks():
        yield (header + "\n").encode()
        # the whole run is never stacked into one array or held as text
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            yield format_rows(np.column_stack([c[start:stop] for c in columns]))

    _atomic_write(path, chunks())


def write_oracle(out_dir: str | Path, run: LadderRun) -> Path:
    """Write an exact-cascade run's trajectory CSV and summary JSON; returns the CSV path.

    The outputs must be no further apart than the top rung's lifetime
    1/(N*gamma_eff): a coarser grid misses the pulse, so its peak and
    integral would be reported wrong.
    """
    t_end = float(run.t[-1])
    spacing = t_end / (len(run.t) - 1)
    if spacing * run.gamma_eff * run.n_atoms > 1.0:
        raise ParameterDomainError(
            "t_end", f"{t_end!r} spaces the outputs {spacing:.3g} apart, wider than the top"
            f" rung's lifetime 1/(N*gamma_eff) = {1.0 / (run.n_atoms * run.gamma_eff):.3g}"
        )
    peak = float(run.intensity.max())
    with np.errstate(over="ignore"):  # an overflow is reported just below
        total = float(np.trapezoid(run.intensity, run.t))
    if not math.isfinite(total):
        raise ParameterDomainError(
            "t_end", f"{t_end!r} at a peak intensity of {peak!r} overflows the integrated"
            " intensity"
        )
    summary = {
        "n_atoms": run.n_atoms,
        "gamma_eff": run.gamma_eff,
        "omega_ratio": run.omega_ratio,
        "t_end": t_end,
        "peak_intensity": peak,
        "peak_time": float(run.t[int(np.argmax(run.intensity))]),
        "integrated_intensity": total,
        "quanta_emitted": float(run.mean_m[0] - run.mean_m[-1]),
        "final_mean_m": float(run.mean_m[-1]),
    }
    out_dir = Path(out_dir)
    csv_path = out_dir / f"oracle_n{run.n_atoms}_trajectory.csv"
    write_trajectory_csv(csv_path, run.t, run.mean_m, run.intensity, header=ORACLE_HEADER)
    _write_json(out_dir / f"oracle_n{run.n_atoms}_summary.json", summary)
    return csv_path


def _metrics_doc(
    cfg: RunConfig,
    d: DerivedParams,
    metrics: PulseMetrics,
    traj: BlochTrajectory,
) -> dict:
    mdoc = asdict(metrics)
    mdoc.pop("predictions")
    return {
        "config": {
            "label": cfg.label,
            "params": {**asdict(cfg.params), "regime": cfg.params.regime.value},
            "init": {"theta0": cfg.init.theta, "phi0": cfg.init.phi},
            "t_end": cfg.t_end,
            "integration": asdict(cfg.integration),
        },
        "derived_params": asdict(d),
        "pulse_metrics": mdoc,
        "integrator_stats": asdict(traj.stats),
        "samples": len(traj),
        "definitions": MEASUREMENT_DEFINITIONS,
    }


# ---------------------------------------------------------------------------
# execution

def execute(cfg: RunConfig) -> RunResult:
    """Run one resolved configuration and write the files its formats name."""
    p = cfg.params
    d = derive_params(p)
    # both poles are fixed points, but sin(math.pi) is 1.2e-16, not 0, so
    # the pulse analysis would otherwise measure roundoff
    if cfg.init.theta in (0.0, math.pi):
        raise EmptyAnalysisError(NO_EMISSION)
    if p.regime.is_weak_like():
        traj = sample_weak_solution(cfg)
    else:
        traj = integrate_strong(cfg)

    t, energy, intensity = emission_arrays(traj)
    metrics = compute_metrics(t, intensity, d)

    traj_path = metrics_path = None
    if "csv" in cfg.formats:
        traj_path = cfg.out_dir / f"{cfg.label}_trajectory.csv"
        write_trajectory_csv(traj_path, t, traj.theta, traj.phi, energy, intensity)
    if "json" in cfg.formats:
        metrics_path = cfg.out_dir / f"{cfg.label}_metrics.json"
        _write_json(metrics_path, _metrics_doc(cfg, d, metrics, traj))
    return RunResult(cfg.label, traj_path, metrics_path, metrics)


def resolve(p: SampleParams, label: str = "run", **flags) -> RunConfig:
    """The RunConfig that parse_config resolves for p under the CLI's run flags."""
    params = asdict(p)
    doc = {"label": label, "regime": params.pop("regime").value, "params": params}
    # base_dir is passed, so it cannot arrive among the flags
    return parse_config(doc, Path("."), **flags)[0]


def run_preset(name: str, **overrides) -> RunResult:
    """Execute one of the figure presets; overrides are parse_config's flag keywords."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return execute(resolve(PRESETS[name], name, **overrides))


def run_config(path: str | Path, **overrides) -> list[RunResult]:
    """Execute every run described by a configuration file, with the same overrides."""
    # every run is resolved and checked before the first one writes a file
    return [execute(cfg) for cfg in load_config(path, **overrides)]
