"""Bloch-sphere state and trajectory containers shared by both regimes."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rk
from .errors import ParameterDomainError, SampleBudgetError
from .params import DerivedParams, Regime, SampleParams, derive_params, is_finite

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
            raise ParameterDomainError("theta", f"must lie in [0, pi], got {self.theta!r}")
        object.__setattr__(self, "theta", min(max(self.theta, 0.0), math.pi))
        # the strong equations take sin(2 phi), so 2 phi must be finite too
        if not (is_finite(self.phi) and is_finite(2.0 * self.phi)):
            raise ParameterDomainError("phi", f"must be finite, as must 2*phi; got {self.phi!r}")


@dataclass(frozen=True)
class IntegrationControl:
    rtol: float = 1e-9
    atol: float = 1e-12
    max_samples: int = 2_000_000  # caps the output samples and the accepted steps
    max_step: float | None = None  # extra cap on top of the fast-phase resolution cap

    def __post_init__(self):
        for name in ("rtol", "atol"):
            value = getattr(self, name)
            if not (is_finite(value) and value > 0):
                raise ParameterDomainError(name, f"must be finite and positive, got {value!r}")
        ms = self.max_samples
        if not (is_finite(ms) and float(ms).is_integer()):
            raise ParameterDomainError("max_samples", f"must be an integer, got {ms!r}")
        object.__setattr__(self, "max_samples", int(ms))
        if self.max_samples < 1:
            raise ParameterDomainError("max_samples", "need at least one sample")
        if self.max_step is not None and not (is_finite(self.max_step) and self.max_step > 0):
            raise ParameterDomainError(
                "max_step", f"must be finite and positive, got {self.max_step!r}"
            )


@dataclass(frozen=True)
class IntegratorStats:
    n_steps: int
    n_rejected: int
    max_error_ratio: float
    norm_drift: float | None = None  # cartesian diagnostic only


@dataclass
class BlochTrajectory:
    """Dense (theta, phi) samples on a uniform scaled-time grid over [0, t[-1]].

    kind records which regime's observable map applies to the samples
    (set by whichever routine produced the trajectory, not by the
    classifier).  Integrated trajectories also carry the integrator's
    accepted steps, led by the initial point; closed-form ones leave the
    step_* fields as None.
    """

    sample_params: SampleParams
    kind: Regime
    t: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    stats: IntegratorStats
    step_t: np.ndarray | None = field(default=None, repr=False)
    step_theta: np.ndarray | None = field(default=None, repr=False)
    step_phi: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.t)


def default_initial_state(p: SampleParams, phi0: float = DEFAULT_PHI0) -> BlochState:
    """Initial tipping angle shared by the strong and weak pipelines.

    sin(theta0) = 2/(N + 1/N) = sech(ln N), which is exactly where the
    weak-coupling closed form sits at t = 0.  The fully excited pole is a
    fixed point, so some tipping is required for any emission at all.
    """
    n = float(p.n_atoms)
    return BlochState(theta=math.asin(2.0 / (n + 1.0 / n)), phi=phi0)


def envelope_timescale(p: SampleParams, kind: Regime) -> float:
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
    if kind.is_weak_like():
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
    return 1.0 / (half_rate * sin2_locked)


def default_t_end(p: SampleParams, kind: Regime) -> float:
    """Integration window covering the delay, the envelope and its tail."""
    tau = envelope_timescale(p, kind)
    return tau * (math.log(p.n_atoms) + 5.0)


def output_grid(t_end: float, d: DerivedParams, ctrl: IntegrationControl) -> np.ndarray:
    """Uniform output grid on [0, t_end].

    Target spacing is min(tau_1_pred/10, tau_c_pred/1000); if that blows
    the sample budget the grid decimates down to 10 samples per
    tau_1_pred, and past that the request is refused.
    """
    if not (is_finite(t_end) and t_end >= 0):
        raise ParameterDomainError("t_end", f"must be finite and non-negative, got {t_end!r}")
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


def _angle_state(init: BlochState) -> tuple[float, float]:
    return init.theta, init.phi


def _clipped_angles(values: list[np.ndarray], init: BlochState):
    # in place: the integrator hands over arrays it no longer uses
    return np.clip(values[0], 0.0, math.pi, out=values[0]), values[1]


def _integrate(
    p: SampleParams,
    kind: Regime,
    make_rhs,
    init: BlochState | None,
    t_end: float | None,
    ctrl: IntegrationControl | None,
    to_state=_angle_state,
    to_angles=_clipped_angles,
) -> tuple[BlochTrajectory, rk.RKResult]:
    """Integrate make_rhs(d) over the standard output grid of p.

    Unset init, t_end and ctrl take their defaults for kind.  to_state
    maps the initial state onto the integrated variables and to_angles maps
    integrated values (grid samples or steps) back to (theta, phi).  The
    sample budget ctrl.max_samples also caps the accepted steps, so a stiff
    window cannot run for hours on a small grid.
    """
    d = derive_params(p)
    if init is None:
        init = default_initial_state(p)
    if t_end is None:
        t_end = default_t_end(p, kind)
    if ctrl is None:
        ctrl = IntegrationControl()
    grid = output_grid(t_end, d, ctrl)
    res = rk.solve(
        make_rhs(d),
        to_state(init),
        grid,
        rtol=ctrl.rtol,
        atol=ctrl.atol,
        max_step=fast_phase_max_step(d, ctrl),
        max_steps=ctrl.max_samples,
    )
    theta, phi = to_angles(res.grid_values, init)
    step_theta, step_phi = to_angles(res.step_values, init)
    traj = BlochTrajectory(
        sample_params=p,
        kind=kind,
        t=grid,
        theta=theta,
        phi=phi,
        stats=IntegratorStats(res.n_accepted, res.n_rejected, res.max_error_ratio),
        step_t=res.step_times,
        step_theta=step_theta,
        step_phi=step_phi,
    )
    return traj, res
