"""Bloch-sphere state and trajectory containers shared by both regimes."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ParameterDomainError, SampleBudgetError
from .params import (DerivedParams, SampleParams, check_finite, check_integer, check_not_bool,
                     derive_params, is_finite, short_repr)

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
        check_not_bool("theta", self.theta)
        check_not_bool("phi", self.phi)
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


class OutputGrid:
    """np.linspace(0.0, t_end, n), made one row or one slice of rows at a time.

    Every row is linspace's bit for bit: k * step + 0.0 with step =
    t_end / (n - 1), or (k / (n - 1)) * t_end where that step underflows
    to 0, and the last row is t_end itself.  A run holds its grid as these
    two numbers; an int index is a Python float, a slice a float array and
    np.asarray(grid) the whole grid.
    """

    ndim = 1

    def __init__(self, t_end: float, n: int):
        self.t_end = t_end
        self.n = n
        # linspace takes a one-row grid as 0 * t_end, so step = t_end gives its row too
        self._step = t_end / (n - 1) if n > 1 else t_end
        self._underflow = n > 1 and self._step == 0.0

    def __len__(self) -> int:
        return self.n

    @property
    def shape(self) -> tuple[int]:
        return (self.n,)

    def __getitem__(self, key):
        if isinstance(key, slice):
            rows = range(self.n)[key]
            t = np.arange(rows.start, rows.stop, rows.step, dtype=float)
            if self._underflow:
                t /= self.n - 1
                t *= self.t_end
            else:
                t *= self._step
            t += 0.0
            if self.n > 1 and self.n - 1 in rows:
                t[rows.index(self.n - 1)] = self.t_end
            return t
        k = operator.index(key)
        if k < 0:
            k += self.n
        if not 0 <= k < self.n:
            raise IndexError(f"row {key} of a grid of {self.n}")
        if k == self.n - 1 > 0:
            return self.t_end
        if self._underflow:
            return k / (self.n - 1) * self.t_end + 0.0
        return k * self._step + 0.0

    def __array__(self, dtype=None, copy=None):
        return self[:] if dtype is None else self[:].astype(dtype, copy=False)


@dataclass
class BlochTrajectory:
    """(theta, phi) on a uniform scaled-time grid over [0, t[-1]].

    grid is a run's OutputGrid, or an array of the times.  The angles are
    evaluated on demand: angles(lo, hi) gives them on rows lo:hi, from a
    strong run's step record or a weak run's closed form, so a run can
    hold them, and the times, one block of rows at a time.  t, theta and
    phi evaluate the whole grid.
    """

    sample_params: SampleParams
    grid: OutputGrid | np.ndarray
    angles: Callable[[int, int], tuple[np.ndarray, np.ndarray]]
    stats: IntegratorStats

    @classmethod
    def of_arrays(cls, p: SampleParams, t, theta, phi, stats: IntegratorStats):
        """A trajectory that holds the given times and angle samples."""
        return cls(p, t, lambda lo, hi: (theta[lo:hi], phi[lo:hi]), stats)

    def __len__(self) -> int:
        return len(self.grid)

    @property
    def t(self) -> np.ndarray:
        return np.asarray(self.grid, dtype=float)

    @property
    def theta(self) -> np.ndarray:
        return self.angles(0, len(self))[0]

    @property
    def phi(self) -> np.ndarray:
        return self.angles(0, len(self))[1]

    def rows(self, lo: int, hi: int) -> BlochTrajectory:
        """Rows lo:hi, their times and angles evaluated once and held."""
        theta, phi = self.angles(lo, hi)
        return BlochTrajectory.of_arrays(self.sample_params, self.grid[lo:hi], theta, phi,
                                         self.stats)


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


def output_grid(t_end: float, d: DerivedParams, ctrl: IntegrationControl) -> OutputGrid:
    """Uniform output grid on [0, t_end].

    Target spacing is min(tau_1_pred/10, tau_c_pred/1000); if that blows
    the sample budget the grid decimates down to 10 samples per
    tau_1_pred, and past that the request is refused.  A zero window is
    the one sample t = 0.
    """
    t_end = check_finite("t_end", t_end, positive=False)
    spacing = min(d.tau_1_pred / 10.0, d.tau_c_pred / 1000.0)
    # ceil(x) + 1 > max_samples exactly when x > max_samples - 1; comparing
    # the quotient x itself also holds when it lies past float range
    if t_end / spacing > ctrl.max_samples - 1:
        spacing = d.tau_1_pred / 10.0
        n = t_end / spacing
        if n > ctrl.max_samples - 1:
            raise SampleBudgetError(math.ceil(n) + 1 if is_finite(n) else n, ctrl.max_samples)
    return OutputGrid(t_end, math.ceil(t_end / spacing) + 1)


def fast_phase_max_step(d: DerivedParams, ctrl: IntegrationControl) -> float:
    cap = (2.0 * math.pi / d.omega_eff) / FAST_PHASE_STEPS_PER_PERIOD
    if ctrl.max_step is not None:
        cap = min(cap, ctrl.max_step)
    return cap
