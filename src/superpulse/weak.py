"""Weak-coupling dynamics: closed-form solution and observables.

The polar branch through pi/2 is resolved by tracking cos(theta) =
-tanh((t - t0)/tau_c), which is single-valued where arcsin of the sech
form is not.
"""
from __future__ import annotations

import numpy as np

from .bloch import (
    DEFAULT_PHI0,
    BlochTrajectory,
    IntegrationControl,
    IntegratorStats,
    default_t_end,
    output_grid,
)
from .params import DerivedParams, Regime, SampleParams, derive_params


def _sech(x):
    """Numerically safe sech: decays to 0 instead of overflowing cosh."""
    ax = np.abs(x)
    e = np.exp(-ax)
    return 2.0 * e / (1.0 + e * e)


def _closed_form_arg(d: DerivedParams, t):
    """(t - t0)/tau_c, the argument of the closed form's tanh and sech."""
    return (np.asarray(t, dtype=float) - d.delay_time_closed) / d.tau_c_closed


def weak_angles(p: SampleParams, t, phi0: float = DEFAULT_PHI0):
    """Closed-form Bloch angles (theta, phi) at scaled times t.

    sin(theta) = sech((t - t0)/tau_c) with theta < pi/2 before the delay
    time and theta > pi/2 after it; phi advances linearly at the effective
    frequency.  Accepts a scalar or an array of scaled times.
    """
    d = derive_params(p)
    theta = np.arccos(-np.tanh(_closed_form_arg(d, t)))
    return theta, phi0 + d.omega_eff * np.asarray(t, dtype=float)


def weak_energy(p: SampleParams, t):
    """Representative-atom energy over omega0: -((1+alpha)/2) tanh((t-t0)/tau_c).

    Accepts a scalar or an array of scaled times.
    """
    d = derive_params(p)
    return -(1.0 + d.alpha) / 2.0 * np.tanh(_closed_form_arg(d, t))


def weak_intensity(p: SampleParams, t):
    """Emitted intensity over gamma*omega0: (N^2/4)(1+alpha)^2 sech^2((t-t0)/tau_c).

    Accepts a scalar or an array of scaled times.
    """
    d = derive_params(p)
    n = float(p.n_atoms)
    s = _sech(_closed_form_arg(d, t))
    return (n * (1.0 + d.alpha)) ** 2 / 4.0 * s * s


def sample_weak_solution(
    p: SampleParams,
    t_end: float | None = None,
    ctrl: IntegrationControl | None = None,
    phi0: float = DEFAULT_PHI0,
) -> BlochTrajectory:
    """Evaluate the closed form on the standard output grid.

    This is the production path for weak-regime runs; no integration error
    is involved, so the stats report zero steps.
    """
    d = derive_params(p)
    if t_end is None:
        t_end = default_t_end(p, Regime.WEAK)
    if ctrl is None:
        ctrl = IntegrationControl()
    grid = output_grid(t_end, d, ctrl)
    theta, phi = weak_angles(p, grid, phi0)
    return BlochTrajectory(
        sample_params=p,
        kind=Regime.WEAK,
        t=grid,
        theta=theta,
        phi=phi,
        stats=IntegratorStats(0, 0, 0.0),
    )
