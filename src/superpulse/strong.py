"""Strong-coupling mean-field Bloch dynamics.

The polar angle only grows (sin(theta)*sin(phi)^2 >= 0 on the upper
hemisphere branch), while the azimuth mixes a fast linear drift at the
effective frequency with a nonlinear correction.  The intensity comb seen
in the strong regime is entirely the sin(phi)^2 modulation of the polar
rate.

integrate_cartesian evolves the same flow rewritten for the unit Bloch
vector; because the exact flow conserves the norm, the numerical drift of
|s| is a direct integration-quality diagnostic.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .bloch import BlochState, BlochTrajectory, IntegrationControl, _integrate
from .params import DerivedParams, Regime, SampleParams


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


def _make_cartesian_rhs(d: DerivedParams):
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


def integrate_strong(
    p: SampleParams,
    init: BlochState | None = None,
    t_end: float | None = None,
    ctrl: IntegrationControl | None = None,
) -> BlochTrajectory:
    """Integrate the strong-coupling angle equations over [0, t_end]."""
    return _integrate(p, Regime.STRONG, _make_rhs, init, t_end, ctrl)[0]


def _cartesian_state(init: BlochState) -> tuple[float, float, float]:
    return (
        math.sin(init.theta) * math.cos(init.phi),
        math.sin(init.theta) * math.sin(init.phi),
        math.cos(init.theta),
    )


def _cartesian_angles(values: list[np.ndarray], init: BlochState):
    sx, sy, sz = values
    r = np.sqrt(sx * sx + sy * sy + sz * sz)
    theta = np.arccos(np.clip(sz / r, -1.0, 1.0))
    phi = np.unwrap(np.arctan2(sy, sx))
    # unwrap starts at atan2's principal value; shift onto the requested branch
    phi += init.phi - phi[0]
    return theta, phi


def integrate_cartesian(
    p: SampleParams,
    init: BlochState | None = None,
    t_end: float | None = None,
    ctrl: IntegrationControl | None = None,
) -> BlochTrajectory:
    """Diagnostic twin of integrate_strong on the unit Bloch vector.

    Returns angles recovered from (sx, sy, sz); stats.norm_drift reports
    max | |s| - 1 | over all accepted steps.  Drift beyond 1e-6 is flagged
    with a RuntimeWarning but the trajectory is still returned.
    """
    traj, res = _integrate(
        p, Regime.STRONG, _make_cartesian_rhs, init, t_end, ctrl,
        to_state=_cartesian_state, to_angles=_cartesian_angles,
    )
    sxs, sys_, szs = res.step_values
    rs = np.sqrt(sxs * sxs + sys_ * sys_ + szs * szs)
    # index 0 is the initial point, not an accepted step
    drift = float(np.max(np.abs(rs[1:] - 1.0), initial=0.0))
    if drift > 1e-6:
        import warnings

        warnings.warn(
            f"cartesian norm drift {drift:.3e} exceeds 1e-6; tighten tolerances",
            RuntimeWarning,
            stacklevel=2,
        )
    traj.stats = replace(traj.stats, norm_drift=drift)
    return traj
