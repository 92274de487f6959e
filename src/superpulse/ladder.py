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

The outputs come in blocks of B = isqrt(n_out - 1) rows: the first block
is stepped one interval at a time, and each later block is one matrix
product of the block before it with P^B, P = R^m, so only two blocks of
populations are ever held.  That costs O(N^3 (log m + log B) + n_out N^2)
time, spent in block products, and O(N^2) memory, hence the cap of
N_ORACLE_CAP atoms.  The window enters only through log m, so a long
t_end costs a few more squarings, not more steps.

Taking Gamma_eff as an input lets one cascade validate both the bare Dicke
case and the collectively enhanced rates: within the symmetric subspace
the pairwise interaction term is diagonal and moves no population.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, StepSizeError
from .params import check_finite, check_integer

# positivity guard: a single RK4 step must satisfy dt * max rate < 0.1
MAX_STEP_RATE_PRODUCT = 0.1

# the dense (N+1)^2 propagator needs about 220 MiB at this cap
N_ORACLE_CAP = 2_000


def cascade_rates(n_atoms: int) -> np.ndarray:
    """g_M = (J+M)(J-M+1) for M = J..-J; the bottom rung has rate zero."""
    i = np.arange(n_atoms + 1, dtype=float)
    return (n_atoms - i) * (i + 1.0)


@dataclass(frozen=True)
class LadderRun:
    t: np.ndarray
    final_populations: np.ndarray  # normalised, at t[-1]; shape (N+1,)
    mean_m: np.ndarray
    intensity: np.ndarray     # scaled by gamma*omega0
    n_atoms: int              # the validated inputs, read by the run's summary
    gamma_eff: float
    omega_ratio: float


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
    n_atoms = check_integer("n_atoms", n_atoms)
    if n_atoms < 2 or n_atoms > N_ORACLE_CAP:
        raise ParameterDomainError("n_atoms", f"oracle supports 2..{N_ORACLE_CAP}, got {n_atoms}")
    # the rest runs on the checked floats, so a huge integer overflows as its float does
    gamma_eff = check_finite("gamma_eff", gamma_eff)
    omega_ratio = check_finite("omega_ratio", omega_ratio)
    n_out = check_integer("n_out", n_out)
    if n_out < 2:
        raise ParameterDomainError("n_out", f"need at least 2 output times, got {n_out}")
    if t_end is None:
        t_end = 40.0 * math.log(max(n_atoms, 3)) / (n_atoms * gamma_eff)
        if not (t_end > 0 and math.isfinite(t_end)):
            raise ParameterDomainError(
                "gamma_eff", f"{gamma_eff!r} {'over' if t_end else 'under'}flows the default"
                f" window 40 ln N/(N*gamma_eff) to {t_end!r}"
            )
    t_end = check_finite("t_end", t_end)
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
    propagator = interval_propagator(rates, interval, m)

    # rows 0..B-1 step one interval at a time; every later block of B rows is
    # the block before it times P^B.  Rows carry their roundoff drift, so each
    # row's reductions are divided by that row's total.
    b = math.isqrt(n_out - 1)
    block = np.zeros((b, n_atoms + 1))
    block[0, 0] = 1.0  # fully excited: all population on M = J
    for i in range(1, b):
        block[i] = propagator @ block[i - 1]
    leap = np.linalg.matrix_power(propagator.T, b)  # (P^B)^T, as rows multiply it
    weights = np.column_stack((np.ones(n_atoms + 1), n_atoms / 2.0 - np.arange(n_atoms + 1),
                               rates))
    sums = np.empty((n_out, 3))  # total, M and g summed over each row
    for start in range(0, n_out, b):
        if start:
            block = block[:n_out - start] @ leap
        sums[start:start + b] = block @ weights
    totals = sums[:, 0]
    drift = np.abs(totals - 1.0) > 1e-10
    if drift.any():
        raise StepSizeError(f"population drift {totals[drift.argmax()] - 1.0:.3e} exceeds 1e-10")
    return LadderRun(t=np.linspace(0.0, t_end, n_out), final_populations=block[-1] / totals[-1],
                     mean_m=sums[:, 1] / totals,
                     intensity=omega_ratio * gamma_eff * (sums[:, 2] / totals),
                     n_atoms=n_atoms, gamma_eff=gamma_eff, omega_ratio=omega_ratio)


def interval_propagator(rates: np.ndarray, interval: float, m: int) -> np.ndarray:
    """R^m: m classical RK4 steps of size interval/m of the cascade, as one matrix."""
    hr = interval / m * rates
    a = np.diag(-hr) + np.diag(hr[:-1], -1)
    eye = np.eye(len(rates))
    r = eye + a @ (eye + a / 2 @ (eye + a / 3 @ (eye + a / 4)))
    np.clip(r, 0.0, None, out=r)  # exactly non-negative at this h; drop roundoff
    return np.linalg.matrix_power(r, m)
