"""Bloch-sphere state and trajectory containers shared by both regimes."""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterDomainError, SampleBudgetError
from .params import (DerivedParams, SampleParams, check_finite, check_integer, derive_params,
                     is_finite, short_repr)

# canonical initial azimuth: sin(phi)^2 = 1, maximal initial emission channel
DEFAULT_PHI0 = math.pi / 2

# resolve the fast phase with at least 20 steps per 2*pi/omega_eff period
FAST_PHASE_STEPS_PER_PERIOD = 20


@dataclass(frozen=True)
class BlochState:
    """A point on the unit Bloch sphere; every run starts from one at t = 0.

    theta is the polar angle in [0, pi]; phi is the accumulated azimuthal
    phase and is deliberately left unwrapped.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise ParameterDomainError(
                "theta", f"must lie in [0, pi], got {short_repr(self.theta)}"
            )
        object.__setattr__(self, "theta", min(max(self.theta, 0.0), math.pi))
        # the strong equations take sin(2 phi), so 2 phi must be finite too
        if not (is_finite(self.phi) and is_finite(2.0 * self.phi)):
            raise ParameterDomainError(
                "phi", f"must be finite, as must 2*phi; got {short_repr(self.phi)}"
            )


@dataclass(frozen=True)
class IntegrationControl:
    rtol: float = 1e-9
    atol: float = 1e-12
    max_samples: int = 2_000_000  # caps the output samples and the accepted steps
    max_step: float | None = None  # extra cap on top of the fast-phase resolution cap

    def __post_init__(self):
        check_finite("rtol", self.rtol)
        check_finite("atol", self.atol)
        object.__setattr__(self, "max_samples", check_integer("max_samples", self.max_samples))
        if self.max_samples < 1:
            raise ParameterDomainError("max_samples", "need at least one sample")
        if self.max_step is not None:
            check_finite("max_step", self.max_step)


@dataclass(frozen=True)
class IntegratorStats:
    n_steps: int
    n_rejected: int
    max_error_ratio: float
    norm_drift: float | None = None  # set only by the cartesian twin in tests; null in the metrics


@dataclass(frozen=True)
class RunConfig:
    """One run's inputs with every default resolved; parse_config builds it."""

    params: SampleParams
    label: str
    init: BlochState
    t_end: float
    integration: IntegrationControl
    out_dir: Path
    formats: tuple[str, ...]


@dataclass
class BlochTrajectory:
    """Dense (theta, phi) samples on a uniform scaled-time grid over [0, t[-1]]."""

    sample_params: SampleParams
    t: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    stats: IntegratorStats

    def __len__(self) -> int:
        return len(self.t)


def default_initial_state(p: SampleParams) -> BlochState:
    """Initial tipping angle shared by the strong and weak pipelines.

    sin(theta0) = 2/(N + 1/N) = sech(ln N), which is exactly where the
    weak-coupling closed form sits at t = 0.  The fully excited pole is a
    fixed point, so some tipping is required for any emission at all.
    """
    n = float(p.n_atoms)
    return BlochState(theta=math.asin(2.0 / (n + 1.0 / n)), phi=DEFAULT_PHI0)


def envelope_timescale(p: SampleParams) -> float:
    """Estimated emission-envelope time constant in units of 1/gamma.

    Weak coupling: the closed form gives 2/((1+alpha) N gamma) exactly.
    Strong coupling: sin(phi)^2 in the polar equation time-averages to 1/2
    while the phase circulates, so the envelope runs at half the weak rate.
    Once the nonlinear term dominates the phase equation (roughly
    N*gamma/(4*omega0) >= 1) the phase locks near a slow-growth angle and
    the envelope slows down further; the locked rate is used then.
    """
    d = derive_params(p)
    n = float(p.n_atoms)
    if p.regime.is_weak_like():
        return d.tau_c_closed
    half_rate = (n - 1.0) * d.gamma_eff / 2.0
    lock = (n - 1.0) * d.gamma_eff / (4.0 * d.omega_eff)
    if lock < 1.0:
        return 2.0 / half_rate
    sin2_locked = (1.0 - math.sqrt(1.0 - (1.0 / lock) ** 2)) / 2.0
    if sin2_locked == 0.0:
        # past a lock of about 1e8 the difference cancels to 0; same value, rearranged
        x2 = (1.0 / lock) ** 2
        sin2_locked = x2 / (2.0 * (1.0 + math.sqrt(1.0 - x2)))
    rate = half_rate * sin2_locked
    # past a lock of about 1e161 even the rearranged form underflows to 0
    return 1.0 / rate if rate else math.inf


def default_t_end(p: SampleParams) -> float:
    """Integration window covering the delay, the envelope and its tail."""
    tau = envelope_timescale(p)
    return tau * (math.log(p.n_atoms) + 5.0)


def output_grid(t_end: float, d: DerivedParams, ctrl: IntegrationControl) -> np.ndarray:
    """Uniform output grid on [0, t_end].

    Target spacing is min(tau_1_pred/10, tau_c_pred/1000); if that blows
    the sample budget the grid decimates down to 10 samples per
    tau_1_pred, and past that the request is refused.
    """
    check_finite("t_end", t_end, positive=False)
    if t_end == 0.0:
        return np.zeros(1)
    spacing = min(d.tau_1_pred / 10.0, d.tau_c_pred / 1000.0)
    # ceil(x) + 1 > max_samples exactly when x > max_samples - 1; comparing
    # the quotient x itself also holds when it lies past float range
    if t_end / spacing > ctrl.max_samples - 1:
        spacing = d.tau_1_pred / 10.0
        n = t_end / spacing
        if n > ctrl.max_samples - 1:
            raise SampleBudgetError(math.ceil(n) + 1 if is_finite(n) else n, ctrl.max_samples)
    return np.linspace(0.0, t_end, math.ceil(t_end / spacing) + 1)


def fast_phase_max_step(d: DerivedParams, ctrl: IntegrationControl) -> float:
    cap = (2.0 * math.pi / d.omega_eff) / FAST_PHASE_STEPS_PER_PERIOD
    if ctrl.max_step is not None:
        cap = min(cap, ctrl.max_step)
    return cap
