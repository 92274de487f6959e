"""Exact small-N reference dynamics on the symmetric Dicke ladder.

The weak-coupling Liouvillian restricted to permutation-symmetric states
is a one-way cascade over the levels M = J, J-1, ..., -J with rates
Gamma_eff * g_M, g_M = (J+M)(J-M+1).  The cascade is linear, so classical
RK4 at a rate-bounded step is accurate, strictly conserves the total
population and is deterministic.

Taking Gamma_eff as an input lets one cascade validate both the bare Dicke
case and the collectively enhanced rates: within the symmetric subspace
the pairwise interaction term is diagonal and moves no population.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, StepSizeError

# positivity guard: a single step must satisfy dt * max rate < 0.1
MAX_STEP_RATE_PRODUCT = 0.1

N_ORACLE_CAP = 10_000


@dataclass(frozen=True)
class LadderState:
    """Populations over the symmetric levels, ordered M = J down to -J."""

    j: float
    populations: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        pops = np.asarray(self.populations, dtype=float)
        object.__setattr__(self, "populations", pops)
        if len(pops) != int(round(2 * self.j)) + 1:
            raise ParameterDomainError(
                "populations", f"need 2J+1 = {int(round(2*self.j))+1} entries, got {len(pops)}"
            )
        if pops.min() < -1e-12:
            raise ParameterDomainError("populations", f"negative entry {pops.min():.3e}")
        total = pops.sum()
        if abs(total - 1.0) > 1e-10:
            raise ParameterDomainError("populations", f"sum {total!r} is not 1 within 1e-10")

    @property
    def n_atoms(self) -> int:
        return int(round(2 * self.j))

    @property
    def m_values(self) -> np.ndarray:
        return self.j - np.arange(len(self.populations))

    def mean_m(self) -> float:
        return float(self.m_values @ self.populations)


def cascade_rates(n_atoms: int) -> np.ndarray:
    """g_M = (J+M)(J-M+1) for M = J..-J; the bottom rung has rate zero."""
    i = np.arange(n_atoms + 1, dtype=float)
    return (n_atoms - i) * (i + 1.0)


def fully_excited(n_atoms: int) -> LadderState:
    if n_atoms < 2 or n_atoms > N_ORACLE_CAP:
        raise ParameterDomainError("n_atoms", f"oracle supports 2..{N_ORACLE_CAP}, got {n_atoms}")
    pops = np.zeros(n_atoms + 1)
    pops[0] = 1.0
    return LadderState(j=n_atoms / 2.0, populations=pops, t=0.0)


def _flow(populations: np.ndarray, rates: np.ndarray, gamma_eff: float) -> np.ndarray:
    flux = gamma_eff * rates * populations
    d = -flux
    d = d.copy()
    d[1:] += flux[:-1]
    return d


def step_ladder(s: LadderState, gamma_eff: float, dt: float) -> LadderState:
    """Advance the cascade by one RK4 step of size dt.

    dt must keep dt * (max rate) below 0.1 so positivity is guaranteed;
    populations are renormalized afterwards (the drift is roundoff-level
    because the flow conserves the sum identically).
    """
    if gamma_eff <= 0:
        raise ParameterDomainError("gamma_eff", f"must be positive, got {gamma_eff!r}")
    if dt < 0:
        raise ParameterDomainError("dt", f"must be non-negative, got {dt!r}")
    if dt == 0.0:
        return s
    rates = cascade_rates(s.n_atoms)
    if dt * gamma_eff * rates.max() >= MAX_STEP_RATE_PRODUCT:
        raise StepSizeError(
            f"dt={dt:.3g} too large: dt*max_rate = {dt * gamma_eff * rates.max():.3g}"
            f" >= {MAX_STEP_RATE_PRODUCT}"
        )
    p = s.populations
    k1 = _flow(p, rates, gamma_eff)
    k2 = _flow(p + 0.5 * dt * k1, rates, gamma_eff)
    k3 = _flow(p + 0.5 * dt * k2, rates, gamma_eff)
    k4 = _flow(p + dt * k3, rates, gamma_eff)
    new = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if new.min() < -1e-12:
        raise StepSizeError(f"positivity violated: min population {new.min():.3e}")
    np.clip(new, 0.0, None, out=new)
    total = new.sum()
    if abs(total - 1.0) > 1e-10:
        raise StepSizeError(f"population drift {total - 1.0:.3e} exceeds 1e-10")
    new /= total
    return LadderState(j=s.j, populations=new, t=s.t + dt)


def ladder_intensity(s: LadderState, gamma_eff: float, omega_ratio: float = 1.0) -> float:
    """Scaled intensity I/(gamma*omega0) = omega_ratio * gamma_eff * sum(g_M P_M).

    omega_ratio is the emitted quantum's energy over omega0, i.e. 1+alpha.
    """
    rates = cascade_rates(s.n_atoms)
    return float(omega_ratio * gamma_eff * (rates @ s.populations))


@dataclass(frozen=True)
class LadderRun:
    t: np.ndarray
    populations: np.ndarray   # shape (len(t), N+1)
    mean_m: np.ndarray
    intensity: np.ndarray     # scaled by gamma*omega0

    def final_state(self, j: float) -> LadderState:
        return LadderState(j=j, populations=self.populations[-1], t=float(self.t[-1]))


def evolve_ladder(
    n_atoms: int,
    gamma_eff: float,
    t_end: float | None = None,
    n_out: int = 2001,
    omega_ratio: float = 1.0,
) -> LadderRun:
    """Run the cascade from the fully excited state, sampling n_out times.

    The default t_end lets the end rungs, the slowest at rate N*gamma_eff,
    decay fully.  Internally substeps at half the positivity bound, which
    for this linear cascade is also comfortably inside the RK4 accuracy
    range.
    """
    state = fully_excited(n_atoms)
    for name, value in (("gamma_eff", gamma_eff), ("omega_ratio", omega_ratio)):
        if not (math.isfinite(value) and value > 0):
            raise ParameterDomainError(name, f"must be finite and positive, got {value!r}")
    if t_end is None:
        t_end = 40.0 * math.log(max(n_atoms, 3)) / (n_atoms * gamma_eff)
    if not (math.isfinite(t_end) and t_end > 0):
        raise ParameterDomainError("t_end", f"must be finite and positive, got {t_end!r}")
    rates = cascade_rates(n_atoms)
    dt_max = 0.5 * MAX_STEP_RATE_PRODUCT / (gamma_eff * rates.max())

    t_out = np.linspace(0.0, t_end, n_out)
    pops = np.empty((n_out, n_atoms + 1))
    pops[0] = state.populations
    for i in range(1, n_out):
        target = t_out[i]
        while state.t < target - 1e-15 * t_end:
            dt = min(dt_max, target - state.t)
            state = step_ladder(state, gamma_eff, dt)
        pops[i] = state.populations
    m = state.m_values
    mean_m = pops @ m
    intensity = omega_ratio * gamma_eff * (pops @ rates)
    return LadderRun(t=t_out, populations=pops, mean_m=mean_m, intensity=intensity)
