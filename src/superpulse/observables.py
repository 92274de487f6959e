"""Maps from Bloch trajectories to the physical observables.

Energies are reported over omega0 and intensities over gamma*omega0, which
are the natural figure axes.  The strong-coupling intensity uses the
N(N-1) pair count and the weak-coupling closed form uses N^2; both follow
their own defining expressions verbatim and differ at O(1/N).
"""
from __future__ import annotations

import numpy as np

from . import rk, weak
from .bloch import BlochTrajectory
from .params import derive_params


def emission_arrays(traj: BlochTrajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (t, energy_scaled, intensity_scaled) for a trajectory.

    The sample's regime picks the map.  Strong trajectories map through
    the angle observables: the energy ((1+alpha)/2) cos(theta) and the
    intensity (1/4) N (N-1) (1+alpha)^2 sin(theta)^2 sin(phi)^2, whose
    sin(phi)^2 factor carves the superpulse comb out of the envelope.
    Weak-like ones use the closed forms on the same grid.  The angles are
    evaluated once, over the whole trajectory; a run maps one block of
    rows at a time (BlochTrajectory.rows).
    """
    p = traj.sample_params
    t = traj.t
    if p.regime.is_weak_like():
        return t, weak.weak_energy(p, t), weak.weak_intensity(p, t)
    d = derive_params(p)
    n = float(d.n_atoms)
    enh = 1.0 + d.alpha
    theta, phi = traj.angles(0, len(traj))
    energy = np.cos(theta)
    energy *= enh / 2.0
    # block by block, so only the output columns grow with the grid
    scale = 0.25 * n * (n - 1.0) * enh * enh
    intensity = np.empty(len(theta))
    for lo in range(0, len(intensity), rk._BLOCK):
        block = slice(lo, lo + rk._BLOCK)
        st = np.sin(theta[block])
        sp = np.sin(phi[block])
        out = intensity[block]
        np.multiply(scale, st, out=out)
        out *= st
        out *= sp
        out *= sp
    return t, energy, intensity

