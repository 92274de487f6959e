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
from .bloch import BlochTrajectory, IntegratorStats, RunConfig, fast_phase_max_step, output_grid
from .errors import ParameterDomainError
from .params import DerivedParams, derive_params


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


def integrate_strong(cfg: RunConfig) -> BlochTrajectory:
    """Integrate the strong-coupling angle equations from cfg.init over [0, cfg.t_end].

    The trajectory keeps the output grid and the integrator's step record,
    and evaluates the times and angles from them on demand.  The sample
    budget cfg.integration.max_samples also caps the accepted steps, so a
    stiff window cannot run for hours on a small grid.
    """
    p, ctrl = cfg.params, cfg.integration
    if p.regime.is_weak_like():
        raise ParameterDomainError("regime", f"a {p.regime.value} run takes sample_weak_solution")
    d = derive_params(p)
    grid = output_grid(cfg.t_end, d, ctrl)
    res = rk.solve(
        _make_rhs(d),
        (cfg.init.theta, cfg.init.phi),
        grid[-1],
        rtol=ctrl.rtol,
        atol=ctrl.atol,
        max_step=fast_phase_max_step(d, ctrl),
        max_steps=ctrl.max_samples,
    )

    def angles(lo, hi):
        theta, phi = rk.dense_output(res, grid, lo, hi)
        # in place: the interpolant hands over fresh arrays
        np.clip(theta, 0.0, math.pi, out=theta)
        return theta, phi

    return BlochTrajectory(
        p, grid, angles, IntegratorStats(res.n_accepted, res.n_rejected, res.max_error_ratio)
    )
