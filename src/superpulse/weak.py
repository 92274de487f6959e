"""Weak-coupling dynamics: closed-form solution and observables.

The polar branch through pi/2 is resolved by tracking cos(theta) =
-tanh((t - t0)/tau_c), which is single-valued where arcsin of the sech
form is not.
"""
from __future__ import annotations

import numpy as np

from .bloch import BlochTrajectory, IntegratorStats, RunConfig, default_initial_state, output_grid
from .errors import ParameterDomainError
from .params import DerivedParams, SampleParams, derive_params


def _sech(x):
    """Numerically safe sech: decays to 0 instead of overflowing cosh."""
    ax = np.abs(x)
    e = np.exp(-ax)
    return 2.0 * e / (1.0 + e * e)


def _closed_form_arg(d: DerivedParams, t):
    """(t - t0)/tau_c, the argument of the closed form's tanh and sech."""
    return (np.asarray(t, dtype=float) - d.delay_time_closed) / d.tau_c_closed


def weak_angles(p: SampleParams, t, phi0: float):
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


def sample_weak_solution(cfg: RunConfig) -> BlochTrajectory:
    """Evaluate the closed form, from cfg.init.phi, on the output grid over [0, cfg.t_end].

    This is the production path for weak-like runs; no integration error
    is involved, so the stats report zero steps.  The closed form starts at
    default_initial_state's angle, so a config with another init.theta is
    refused by naming theta0.  The angles are evaluated on demand.
    """
    p, phi0 = cfg.params, cfg.init.phi
    if not p.regime.is_weak_like():
        raise ParameterDomainError("regime", "a strong run takes integrate_strong")
    theta0 = default_initial_state(p).theta
    if cfg.init.theta != theta0:
        raise ParameterDomainError(
            "theta0", f"a {p.regime.value} run starts on the closed form at {theta0!r};"
            f" got {cfg.init.theta!r}"
        )
    grid = output_grid(cfg.t_end, derive_params(p), cfg.integration)
    return BlochTrajectory(
        p, grid, lambda lo, hi: weak_angles(p, grid[lo:hi], phi0), IntegratorStats(0, 0, 0.0)
    )
