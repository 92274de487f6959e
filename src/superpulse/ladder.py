"""Exact small-N reference dynamics on the symmetric Dicke ladder.

The weak-coupling Liouvillian restricted to permutation-symmetric states
is a one-way cascade over the levels M = J, J-1, ..., -J with rates
Gamma_eff * g_M, g_M = (J+M)(J-M+1).  The cascade is linear and
time-invariant, dP/dt = Gamma_eff Q P with Q lower bidiagonal, so one
classical RK4 step of size h is multiplication by the stability
polynomial R = I + A + A^2/2 + A^3/6 + A^4/24 of A = h Gamma_eff Q, and
m equal substeps between two outputs are the single matrix R^m, formed by
repeated squaring (Moler & Van Loan, SIAM Review 45, 3 (2003), sec. 3).
With h at most half the positivity bound, R is entrywise non-negative, so
the populations stay non-negative; the total is conserved to roundoff.

The dense propagator costs O(N^3 log m + n_out N^2) time and O(N^2)
memory, hence the cap of N_ORACLE_CAP atoms.  The window enters only
through log m, so a long t_end costs a few more squarings, not more
steps.

Taking Gamma_eff as an input lets one cascade validate both the bare Dicke
case and the collectively enhanced rates: within the symmetric subspace
the pairwise interaction term is diagonal and moves no population.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, StepSizeError

# positivity guard: a single RK4 step must satisfy dt * max rate < 0.1
MAX_STEP_RATE_PRODUCT = 0.1

# the dense (N+1)^2 propagator needs about 220 MiB at this cap
N_ORACLE_CAP = 2_000


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
    decay fully.  Each output interval takes m equal RK4 substeps at no
    more than half the positivity bound, which for this linear cascade is
    also comfortably inside the RK4 accuracy range; all m are applied at
    once as the interval propagator R^m.
    """
    state = fully_excited(n_atoms)
    for name, value in (("gamma_eff", gamma_eff), ("omega_ratio", omega_ratio)):
        if not (math.isfinite(value) and value > 0):
            raise ParameterDomainError(name, f"must be finite and positive, got {value!r}")
    if n_out < 2:
        raise ParameterDomainError("n_out", f"need at least 2 output times, got {n_out!r}")
    if t_end is None:
        t_end = 40.0 * math.log(max(n_atoms, 3)) / (n_atoms * gamma_eff)
    if not (math.isfinite(t_end) and t_end > 0):
        raise ParameterDomainError("t_end", f"must be finite and positive, got {t_end!r}")
    rates = cascade_rates(n_atoms)
    # plain floats from here: an overflow gives inf for the checks, not a numpy warning
    peak_rate = float(rates.max())
    if not math.isfinite(omega_ratio * gamma_eff * peak_rate):
        raise ParameterDomainError(
            "omega_ratio", f"{omega_ratio!r} at gamma_eff {gamma_eff!r} overflows the"
            " scaled intensity"
        )
    interval = t_end / (n_out - 1) * gamma_eff  # output spacing in units of 1/gamma_eff
    substeps = interval * peak_rate / (0.5 * MAX_STEP_RATE_PRODUCT)
    if not math.isfinite(substeps):
        raise ParameterDomainError(
            "t_end", f"{t_end!r} at gamma_eff {gamma_eff!r} needs more RK4 substeps"
            " than a float can count"
        )
    m = max(1, math.ceil(substeps))
    hr = interval / m * rates
    a = np.diag(-hr) + np.diag(hr[:-1], -1)
    eye = np.eye(n_atoms + 1)
    r = eye + a @ (eye + a / 2 @ (eye + a / 3 @ (eye + a / 4)))
    np.clip(r, 0.0, None, out=r)  # exactly non-negative at this h; drop roundoff
    propagator = np.linalg.matrix_power(r, m)

    t_out = np.linspace(0.0, t_end, n_out)
    pops = np.empty((n_out, n_atoms + 1))
    pops[0] = state.populations
    for i in range(1, n_out):
        new = propagator @ pops[i - 1]
        total = new.sum()
        if abs(total - 1.0) > 1e-10:
            raise StepSizeError(f"population drift {total - 1.0:.3e} exceeds 1e-10")
        pops[i] = new / total
    mean_m = pops @ state.m_values
    intensity = omega_ratio * gamma_eff * (pops @ rates)
    return LadderRun(t=t_out, populations=pops, mean_m=mean_m, intensity=intensity)
