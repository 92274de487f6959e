"""Configuration ingestion, figure presets, batch execution and serialization.

Trajectories go to CSV (one row per grid point, 17 significant digits so
values round-trip exactly); metrics go to a JSON document embedding the
derived parameters, the measured pulse statistics, integrator stats and
the fully resolved configuration.  The exact-cascade oracle writes its
trajectory and summary through the same writers.  Every file is written
atomically.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .bloch import (
    BlochState,
    BlochTrajectory,
    IntegrationControl,
    default_initial_state,
    default_t_end,
)
from .errors import ConfigError, EmptyAnalysisError, ParameterDomainError
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

_CSV_BLOCK_ROWS = 1000

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


@dataclass
class RunConfig:
    params: SampleParams
    label: str = "run"
    init: BlochState | None = None
    t_end: float | None = None
    integration: IntegrationControl = field(default_factory=IntegrationControl)
    out_dir: Path = Path(".")
    formats: tuple[str, ...] = FORMATS

    def resolved_t_end(self) -> float:
        if self.t_end is not None:
            return self.t_end
        return default_t_end(self.params, self.params.regime)

    def resolved_init(self) -> BlochState:
        if self.init is not None:
            return self.init
        return default_initial_state(self.params)


@dataclass(frozen=True)
class RunResult:
    label: str
    trajectory_path: Path | None   # None when "csv" is not among the formats
    metrics_path: Path | None      # None when "json" is not among the formats
    metrics: PulseMetrics

    @property
    def written(self) -> list[Path]:
        return [p for p in (self.trajectory_path, self.metrics_path) if p is not None]


def _apply_overrides(
    cfg: RunConfig,
    out_dir: str | Path | None = None,
    rtol: float | None = None,
    t_end: float | None = None,
    theta0: float | None = None,
    phi0: float | None = None,
) -> RunConfig:
    """cfg with the given fields replaced; an unset angle keeps its resolved value.

    A weak-like run evaluates the closed form, which starts at the default
    angle and takes only phi0, so a theta0 there is rejected, not ignored.
    """
    if theta0 is not None and cfg.params.regime.is_weak_like():
        raise ParameterDomainError(
            "theta0", f"a {cfg.params.regime.value} run starts on the closed form at the"
            f" default angle; got an override of {theta0!r}"
        )
    changes = {}
    if out_dir is not None:
        changes["out_dir"] = Path(out_dir)
    if rtol is not None:
        changes["integration"] = replace(cfg.integration, rtol=rtol)
    if t_end is not None:
        changes["t_end"] = t_end
    if theta0 is not None or phi0 is not None:
        base = cfg.resolved_init()
        changes["init"] = BlochState(
            theta=base.theta if theta0 is None else theta0,
            phi=base.phi if phi0 is None else phi0,
        )
    return replace(cfg, **changes)


# ---------------------------------------------------------------------------
# config file parsing

_REGIME_NAMES = {r.value: r for r in Regime}


def _require_keys(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _number(v, name: str):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{name} must be a number, got {v!r}")
    return v


def parse_config(doc: dict, base_dir: Path = Path(".")) -> list[RunConfig]:
    """Validate a configuration document; returns one RunConfig per sweep value."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    _require_keys(
        doc,
        {"params", "regime", "label", "init", "t_end", "integration", "outputs", "sweep"},
        "config",
    )
    if "params" not in doc:
        raise ConfigError("missing required key 'params'")
    pd = doc["params"]
    if not isinstance(pd, dict):
        raise ConfigError("'params' must be an object")
    _require_keys(pd, {"n_atoms", "omega0", "g", "gamma"}, "params")
    for key in ("n_atoms", "omega0"):
        if key not in pd:
            raise ConfigError(f"missing required key 'params.{key}'")
    pd = {key: _number(v, f"params.{key}") for key, v in pd.items()}

    regime = None
    if "regime" in doc:
        name = doc["regime"]
        if not isinstance(name, str) or name not in _REGIME_NAMES:
            raise ConfigError(
                f"regime must be one of {sorted(_REGIME_NAMES)}, got {name!r}"
            )
        regime = _REGIME_NAMES[name]

    init = {}
    if "init" in doc:
        idoc = doc["init"]
        if not isinstance(idoc, dict):
            raise ConfigError("'init' must be an object")
        _require_keys(idoc, {"theta0", "phi0"}, "init")
        init = {key: _number(v, f"init.{key}") for key, v in idoc.items()}

    ctrl_kwargs = {}
    if "integration" in doc:
        cdoc = doc["integration"]
        if not isinstance(cdoc, dict):
            raise ConfigError("'integration' must be an object")
        _require_keys(cdoc, {"rtol", "atol", "max_samples", "max_step"}, "integration")
        for key in ("rtol", "atol", "max_samples", "max_step"):
            if key in cdoc:
                ctrl_kwargs[key] = _number(cdoc[key], f"integration.{key}")
    integration = IntegrationControl(**ctrl_kwargs)

    out_dir = base_dir
    formats = FORMATS
    if "outputs" in doc:
        odoc = doc["outputs"]
        if not isinstance(odoc, dict):
            raise ConfigError("'outputs' must be an object")
        _require_keys(odoc, {"directory", "formats"}, "outputs")
        if "directory" in odoc:
            if not isinstance(odoc["directory"], str):
                raise ConfigError("outputs.directory must be a string")
            out_dir = base_dir / odoc["directory"]
        if "formats" in odoc:
            fmts = odoc["formats"]
            if not isinstance(fmts, list) or not fmts or any(f not in FORMATS for f in fmts):
                raise ConfigError(
                    f"outputs.formats must be a non-empty list drawn from {list(FORMATS)}"
                )
            formats = tuple(f for f in FORMATS if f in fmts)

    t_end = _number(doc["t_end"], "config.t_end") if "t_end" in doc else None
    base_label = doc.get("label", "run")
    if not isinstance(base_label, str):
        raise ConfigError("'label' must be a string")

    sp = None
    points = [pd]
    if "sweep" in doc:
        sdoc = doc["sweep"]
        if not isinstance(sdoc, dict):
            raise ConfigError("'sweep' must be an object")
        _require_keys(sdoc, {"param", "values"}, "sweep")
        for key in ("param", "values"):
            if key not in sdoc:
                raise ConfigError(f"missing required key 'sweep.{key}'")
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
        cfg = RunConfig(
            params=params,
            label=label,
            t_end=t_end,
            integration=integration,
            out_dir=out_dir,
            formats=formats,
        )
        configs.append(_apply_overrides(cfg, **init))
    return configs


def load_config(path: str | Path) -> list[RunConfig]:
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # undecodable bytes, or an integer literal too long to read
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(doc, base_dir=path.parent)


# ---------------------------------------------------------------------------
# serialization

def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # mode 0o666 under the umask, as open() would give the file itself
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, doc: dict):
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_trajectory_csv(path: Path, *columns, header: str = TRAJECTORY_HEADER):
    """One header line, then one row per sample at 17 significant digits."""
    row = ",".join(["%.17g"] * len(columns))
    values = np.column_stack(columns)
    # one % per block of rows: far fewer format calls and row strings alive
    blocks = [header]
    for start in range(0, len(values), _CSV_BLOCK_ROWS):
        block = values[start:start + _CSV_BLOCK_ROWS]
        blocks.append("\n".join([row] * len(block)) % tuple(block.ravel().tolist()))
    blocks.append("")
    _atomic_write(path, "\n".join(blocks))


def read_trajectory_csv(path: str | Path):
    """Load a trajectory CSV back into (t, theta, phi, energy, intensity)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    return tuple(data[:, i] for i in range(5))


def write_oracle(
    out_dir: str | Path,
    run: LadderRun,
    n_atoms: int,
    gamma_eff: float,
    omega_ratio: float,
) -> Path:
    """Write an exact-cascade run's trajectory CSV and summary JSON; returns the CSV path.

    The outputs must be no further apart than the top rung's lifetime
    1/(N*gamma_eff): a coarser grid misses the pulse, so its peak and
    integral would be reported wrong.
    """
    t_end = float(run.t[-1])
    spacing = t_end / (len(run.t) - 1)
    if spacing * gamma_eff * n_atoms > 1.0:
        raise ParameterDomainError(
            "t_end", f"{t_end!r} spaces the outputs {spacing:.3g} apart, wider than the top"
            f" rung's lifetime 1/(N*gamma_eff) = {1.0 / (n_atoms * gamma_eff):.3g}"
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
        "n_atoms": n_atoms,
        "gamma_eff": gamma_eff,
        "omega_ratio": omega_ratio,
        "t_end": t_end,
        "peak_intensity": peak,
        "peak_time": float(run.t[int(np.argmax(run.intensity))]),
        "integrated_intensity": total,
        "quanta_emitted": float(run.mean_m[0] - run.mean_m[-1]),
        "final_mean_m": float(run.mean_m[-1]),
    }
    out_dir = Path(out_dir)
    csv_path = out_dir / f"oracle_n{n_atoms}_trajectory.csv"
    write_trajectory_csv(csv_path, run.t, run.mean_m, run.intensity, header=ORACLE_HEADER)
    _write_json(out_dir / f"oracle_n{n_atoms}_summary.json", summary)
    return csv_path

def _config_doc(cfg: RunConfig, t_end: float, init: BlochState) -> dict:
    p = cfg.params
    return {
        "label": cfg.label,
        "params": {
            "n_atoms": p.n_atoms,
            "omega0": p.omega0,
            "g": p.g,
            "gamma": p.gamma,
            "regime": p.regime.value,
        },
        "init": {"theta0": init.theta, "phi0": init.phi},
        "t_end": t_end,
        "integration": asdict(cfg.integration),
    }


def _metrics_doc(
    cfg: RunConfig,
    d: DerivedParams,
    metrics: PulseMetrics,
    traj: BlochTrajectory,
    init: BlochState,
) -> dict:
    mdoc = asdict(metrics)
    mdoc.pop("predictions")
    return {
        "config": _config_doc(cfg, traj.t_end, init),
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
    t_end = cfg.resolved_t_end()
    init = cfg.resolved_init()
    # both poles are fixed points, but sin(math.pi) is 1.2e-16, not 0, so
    # the pulse analysis would otherwise measure roundoff
    if init.theta in (0.0, math.pi):
        raise EmptyAnalysisError(NO_EMISSION)
    if p.regime.is_weak_like():
        traj = sample_weak_solution(p, t_end=t_end, ctrl=cfg.integration, phi0=init.phi)
    else:
        traj = integrate_strong(p, init=init, t_end=t_end, ctrl=cfg.integration)

    t, energy, intensity = emission_arrays(traj)
    metrics = compute_metrics((t, energy, intensity), d)

    traj_path = metrics_path = None
    if "csv" in cfg.formats:
        traj_path = cfg.out_dir / f"{cfg.label}_trajectory.csv"
        write_trajectory_csv(traj_path, t, traj.theta, traj.phi, energy, intensity)
    if "json" in cfg.formats:
        metrics_path = cfg.out_dir / f"{cfg.label}_metrics.json"
        _write_json(metrics_path, _metrics_doc(cfg, d, metrics, traj, init))
    return RunResult(cfg.label, traj_path, metrics_path, metrics)


def preset_config(name: str) -> RunConfig:
    """The configuration of one figure preset."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return RunConfig(params=PRESETS[name], label=name)


def run_preset(
    name: str,
    out_dir: str | Path | None = None,
    rtol: float | None = None,
    t_end: float | None = None,
    theta0: float | None = None,
    phi0: float | None = None,
) -> RunResult:
    """Execute one of the figure presets, with optional overrides."""
    return execute(_apply_overrides(preset_config(name), out_dir, rtol, t_end, theta0, phi0))


def run_config(
    path: str | Path,
    out_dir: str | Path | None = None,
    rtol: float | None = None,
    t_end: float | None = None,
    theta0: float | None = None,
    phi0: float | None = None,
) -> list[RunResult]:
    """Execute every run described by a configuration file."""
    # every override is checked before the first run writes a file
    configs = [
        _apply_overrides(cfg, out_dir, rtol, t_end, theta0, phi0) for cfg in load_config(path)
    ]
    return [execute(cfg) for cfg in configs]
