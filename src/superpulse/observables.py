"""Maps from Bloch trajectories to the physical observables.

Energies are reported over omega0 and intensities over gamma*omega0, which
are the natural figure axes.  The strong-coupling intensity uses the
N(N-1) pair count and the weak-coupling closed form uses N^2; both follow
their own defining expressions verbatim and differ at O(1/N).
"""
from __future__ import annotations

import numpy as np

from . import weak
from .bloch import BlochTrajectory


def emission_arrays(traj: BlochTrajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (t, energy_scaled, intensity_scaled) for a trajectory.

    Strong trajectories map through the angle observables: the energy
    ((1+alpha)/2) cos(theta) and the intensity
    (1/4) N (N-1) (1+alpha)^2 sin(theta)^2 sin(phi)^2, whose sin(phi)^2
    factor carves the superpulse comb out of the envelope.  Weak ones use
    the closed forms on the same grid.
    """
    if traj.kind.is_weak_like():
        p = traj.sample_params
        return traj.t, weak.weak_energy(p, traj.t), weak.weak_intensity(p, traj.t)
    d = traj.params
    n = float(d.n_atoms)
    enh = 1.0 + d.alpha
    energy = enh / 2.0 * np.cos(traj.theta)
    st = np.sin(traj.theta)
    sp = np.sin(traj.phi)
    intensity = 0.25 * n * (n - 1.0) * enh * enh * st * st * sp * sp
    return traj.t, energy, intensity

