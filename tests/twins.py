"""Validation twins of the production integrators, for the tests only.

integrate_cartesian evolves the strong-coupling flow rewritten for the
unit Bloch vector; because the exact flow conserves the norm, the
numerical drift of |s| is a direct integration-quality diagnostic.
integrate_weak_ode integrates the weak-coupling equations whose solution
the closed form claims to be.  Both run a RunConfig from runner.resolve
and call rk.solve on the standard output grid with the fast-phase step
cap, exactly as strong.integrate_strong does.
ladder_rows recomputes an oracle run one output interval at a time, the
reference for evolve_ladder's block products.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from superpulse import rk
from superpulse.bloch import (
    BlochState,
    BlochTrajectory,
    IntegratorStats,
    RunConfig,
    fast_phase_max_step,
    output_grid,
)
from superpulse.ladder import (
    MAX_STEP_RATE_PRODUCT,
    LadderRun,
    cascade_rates,
    interval_propagator,
)
from superpulse.params import DerivedParams, derive_params


def make_cartesian_rhs(d: DerivedParams):
    # exact change of variables of the angle flow: sz' = -sin(theta)*theta',
    # etc.; conserves sx^2 + sy^2 + sz^2 identically
    a = (d.n_atoms - 1.0) * d.gamma_eff / 2.0
    om = d.omega_eff

    def f(t, sx, sy, sz):
        rho = sx * sx + sy * sy
        if rho == 0.0:
            # polar fixed point: the nonlinear terms vanish with sy
            return -om * sy, om * sx, 0.0
        return (
            -om * sy + 2.0 * a * sz * sx * sy * sy / rho,
            om * sx + a * sz * sy * (sy * sy - sx * sx) / rho,
            -a * sy * sy,
        )

    return f


def make_weak_rhs(d: DerivedParams):
    """dtheta/dt = (N-1)(Gamma/2) sin(theta); phi advances at the effective frequency."""
    a = (d.n_atoms - 1.0) * d.gamma_eff / 2.0
    om = d.omega_eff

    def f(t, theta, phi):
        return a * math.sin(theta), om

    return f


def cartesian_state(init: BlochState) -> tuple[float, float, float]:
    return (
        math.sin(init.theta) * math.cos(init.phi),
        math.sin(init.theta) * math.sin(init.phi),
        math.cos(init.theta),
    )


def _solve(cfg: RunConfig, make_rhs, to_state):
    """(grid, rk.solve result) of the flow make_rhs builds, run as cfg says."""
    d = derive_params(cfg.params)
    ctrl = cfg.integration
    grid = output_grid(cfg.t_end, d, ctrl)
    res = rk.solve(
        make_rhs(d),
        to_state(cfg.init),
        grid,
        rtol=ctrl.rtol,
        atol=ctrl.atol,
        max_step=fast_phase_max_step(d, ctrl),
        max_steps=ctrl.max_samples,
    )
    return grid, res


def _trajectory(cfg, grid, theta, phi, res, norm_drift=None) -> BlochTrajectory:
    stats = IntegratorStats(res.n_accepted, res.n_rejected, res.max_error_ratio, norm_drift)
    return BlochTrajectory(cfg.params, grid, theta, phi, stats)


def integrate_cartesian(cfg: RunConfig) -> BlochTrajectory:
    """Twin of integrate_strong on the unit Bloch vector.

    Returns angles recovered from (sx, sy, sz); stats.norm_drift reports
    max | |s| - 1 | over all accepted steps.  Drift beyond 1e-6 is flagged
    with a RuntimeWarning but the trajectory is still returned.
    """
    grid, res = _solve(cfg, make_cartesian_rhs, cartesian_state)
    sx, sy, sz = res.grid_values
    r = np.sqrt(sx * sx + sy * sy + sz * sz)
    theta = np.arccos(np.clip(sz / r, -1.0, 1.0))
    phi = np.unwrap(np.arctan2(sy, sx))
    # unwrap starts at atan2's principal value; shift onto the requested branch
    phi += cfg.init.phi - phi[0]

    sxs, sys_, szs = res.step_values
    rs = np.sqrt(sxs * sxs + sys_ * sys_ + szs * szs)
    # index 0 is the initial point, not an accepted step
    drift = float(np.max(np.abs(rs[1:] - 1.0), initial=0.0))
    if drift > 1e-6:
        warnings.warn(
            f"cartesian norm drift {drift:.3e} exceeds 1e-6; tighten tolerances",
            RuntimeWarning,
            stacklevel=2,
        )
    return _trajectory(cfg, grid, theta, phi, res, drift)


def integrate_weak_ode(cfg: RunConfig) -> BlochTrajectory:
    """Numerically integrate the weak-coupling ODEs (cross-check of the closed form)."""
    grid, res = _solve(cfg, make_weak_rhs, lambda s: (s.theta, s.phi))
    theta, phi = res.grid_values
    np.clip(theta, 0.0, math.pi, out=theta)
    return _trajectory(cfg, grid, theta, phi, res)


def ladder_rows(run: LadderRun) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(populations, mean_m, intensity) of run's outputs, one matrix-vector product each.

    The same interval propagator as evolve_ladder, applied row by row and
    renormalised after every row; populations has one row per output time.
    """
    n_out = len(run.t)
    rates = cascade_rates(run.n_atoms)
    interval = float(run.t[-1]) / (n_out - 1) * run.gamma_eff
    m = max(1, math.ceil(interval * float(rates.max()) / (0.5 * MAX_STEP_RATE_PRODUCT)))
    propagator = interval_propagator(rates, interval, m)
    pops = np.zeros((n_out, run.n_atoms + 1))
    pops[0, 0] = 1.0
    for i in range(1, n_out):
        new = propagator @ pops[i - 1]
        pops[i] = new / new.sum()
    m_values = run.n_atoms / 2.0 - np.arange(run.n_atoms + 1)
    return pops, pops @ m_values, run.omega_ratio * run.gamma_eff * (pops @ rates)
