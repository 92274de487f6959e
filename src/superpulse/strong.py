"""Strong-coupling mean-field Bloch dynamics.

The polar angle only grows (sin(theta)*sin(phi)^2 >= 0 on the upper
hemisphere branch), while the azimuth mixes a fast linear drift at the
effective frequency with a nonlinear correction.  The intensity comb seen
in the strong regime is entirely the sin(phi)^2 modulation of the polar
rate.
"""
from __future__ import annotations

import math

import numpy as np

from . import rk
from .bloch import (
    BlochState,
    BlochTrajectory,
    IntegrationControl,
    IntegratorStats,
    default_initial_state,
    default_t_end,
    fast_phase_max_step,
    output_grid,
)
from .params import DerivedParams, Regime, SampleParams, derive_params


def _make_rhs(d: DerivedParams):
    """Time derivatives f(t, theta, phi) = (dtheta/dt, dphi/dt) in units of gamma."""
    a = (d.n_atoms - 1.0) * d.gamma_eff / 2.0
    om = d.omega_eff

    def f(t, theta, phi):
        sp = math.sin(phi)
        return (
            a * math.sin(theta) * sp * sp,
            om - 0.5 * a * math.cos(theta) * math.sin(2.0 * phi),
        )

    return f


def integrate_strong(
    p: SampleParams,
    init: BlochState | None = None,
    t_end: float | None = None,
    ctrl: IntegrationControl | None = None,
) -> BlochTrajectory:
    """Integrate the strong-coupling angle equations over [0, t_end].

    Unset init, t_end and ctrl take their strong-regime defaults.  The
    sample budget ctrl.max_samples also caps the accepted steps, so a stiff
    window cannot run for hours on a small grid.
    """
    d = derive_params(p)
    if init is None:
        init = default_initial_state(p)
    if t_end is None:
        t_end = default_t_end(p, Regime.STRONG)
    if ctrl is None:
        ctrl = IntegrationControl()
    grid = output_grid(t_end, d, ctrl)
    res = rk.solve(
        _make_rhs(d),
        (init.theta, init.phi),
        grid,
        rtol=ctrl.rtol,
        atol=ctrl.atol,
        max_step=fast_phase_max_step(d, ctrl),
        max_steps=ctrl.max_samples,
    )
    theta, phi = res.grid_values
    # in place: the integrator hands over arrays it no longer uses
    np.clip(theta, 0.0, math.pi, out=theta)
    return BlochTrajectory(
        sample_params=p,
        kind=Regime.STRONG,
        t=grid,
        theta=theta,
        phi=phi,
        stats=IntegratorStats(res.n_accepted, res.n_rejected, res.max_error_ratio),
    )
