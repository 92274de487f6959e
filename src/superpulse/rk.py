"""Adaptive embedded Runge-Kutta integration (Dormand-Prince 5(4) pair).

Seven stages with FSAL, fifth-order propagation, fourth-order error
estimate, PI step-size control.  The state is a small tuple of floats and
the right-hand side is called with unpacked components; this keeps the per
step cost low enough that desk-scale runs with millions of fast-phase
oscillations finish in seconds.

One step attempt is straight-line Python generated from the tableau below
once per state size: every stage, the solution and the error components
are unrolled sums, left to right from 0.0 with the zero-coefficient terms
kept.  That is the rounding of a plain float loop (and of sum() before
Python 3.12, whose sum() compensates), so results do not depend on the
interpreter version.

Every accepted step is recorded (start time, size, state and stages): the
step kernel packs that row as doubles, named one by one, and solve appends
the bytes to one buffer.  dense_output evaluates the pair's matched quartic
dense-output polynomial of that record on any rows of an output grid, in
fixed blocks of points, so interpolated values carry the same accuracy as
the step endpoints, and they depend only on the step sequence, never on
the grid, the rows or the blocks.
"""
from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationFailure

# Dormand-Prince 5(4) Butcher tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# b - bhat, applied to k1..k7 for the local error estimate
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Shampine's quartic dense-output interpolant for the pair; keeps the
# resampled values at the accuracy of the solution itself
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

_MAX_FACTOR = 5.0
_MIN_FACTOR = 0.2
_SAFETY = 0.9
# PI controller exponents (beta = 0.04, alpha = 1/5 - 0.75*beta)
_PI_ALPHA = 0.17
_PI_BETA = 0.04

_MAX_CONSECUTIVE_REJECTS = 64

# the step-size floor is _TINY * t_end, 16 ulp at t_end: inside the loop
# 0 <= t < t_end, so t_end is the larger of |t| and t_end
_TINY = 16.0 * sys.float_info.epsilon

# grid points per block of the dense path (grid rows, fill, observables, CSV
# columns, pulse grid check and maxima): a run holds about a dozen arrays of
# this size beside its intensity, so a smaller block lowers the peak until
# the per-block Python overhead shows
_BLOCK = 1 << 14


@dataclass
class RKResult:
    n_accepted: int
    n_rejected: int
    max_error_ratio: float          # largest accepted scaled error (1.0 = at tolerance)
    step_times: np.ndarray          # initial time, then the end of every accepted step
    step_values: list[np.ndarray]   # one array per state component, at step_times
    step_sizes: np.ndarray          # one per accepted step
    stages: np.ndarray              # (accepted step, stage, component)


def solve(
    rhs: Callable[..., tuple],
    y0: Sequence[float],
    t_end: float,
    rtol: float,
    atol: float,
    max_step: float,
    max_steps: float = math.inf,
) -> RKResult:
    """Integrate dy/dt = rhs(t, *y) from t=0 to t_end and record every accepted step.

    rhs receives the time followed by the unpacked state components and
    returns the derivative tuple.  The step record, led by the initial
    point, is what dense_output evaluates on a grid.  A run that needs
    more than max_steps accepted steps raises IntegrationFailure.
    """
    ndim = len(y0)
    step = _step_kernel(ndim)
    t_end = float(t_end)
    y = tuple(float(v) for v in y0)
    t = 0.0
    f = rhs(t, *y)
    # conservative first step from the initial derivative magnitude
    d0 = max(max(abs(v) for v in y), 1e-8)
    d1 = max(max(abs(v) for v in f), 1e-8)
    h = min(max_step, 0.01 * d0 / d1, t_end)

    # per accepted step: start time, size, start state and the seven stages
    steps = bytearray()
    n_acc = 0
    n_rej = 0
    rejects_in_a_row = 0
    err_prev = 1e-4
    max_err = 0.0
    min_step = _TINY * t_end

    # per step, x if x > m else m is max(m, x) and x if x < m else m is
    # min(m, x), NaN included, without the builtin call
    while t < t_end:
        if n_acc >= max_steps:
            raise IntegrationFailure(f"step budget of {max_steps} accepted steps spent", t, y)
        final_step = h >= t_end - t
        if final_step:
            h = t_end - t
        if h < min_step:
            raise IntegrationFailure("step size underflow", t, y)

        z, f_end, err, row = step(rhs, t, h, y, f, atol, rtol)

        if err <= 1.0:
            steps += row
            # land exactly on t_end; t + h can fall an ulp short of it
            t = t_end if final_step else t + h
            y = z
            f = f_end
            n_acc += 1
            rejects_in_a_row = 0
            if err > max_err:
                max_err = err
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** -_PI_ALPHA * err_prev ** _PI_BETA
                factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
                factor = factor if factor < _MAX_FACTOR else _MAX_FACTOR
            err_prev = err if err > 1e-4 else 1e-4
            h *= factor
            h = max_step if max_step < h else h
        else:
            n_rej += 1
            rejects_in_a_row += 1
            if rejects_in_a_row > _MAX_CONSECUTIVE_REJECTS:
                raise IntegrationFailure("error estimate will not settle", t, y)
            if math.isfinite(err):
                h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            else:
                h *= _MIN_FACTOR

    rec = np.frombuffer(steps).reshape(n_acc, 2 + 8 * ndim)
    step_times = np.append(rec[:, 0], t)
    step_values = [np.append(rec[:, 2 + i], y[i]) for i in range(ndim)]
    stages = rec[:, 2 + ndim:].reshape(n_acc, 7, ndim)
    return RKResult(n_acc, n_rej, max_err, step_times, step_values, rec[:, 1], stages)


def _step_source(ndim: int) -> str:
    """Source of step(rhs, t, h, y, f, atol, rtol) -> (z, f_end, err, row) for ndim components.

    f_end is the last stage, the derivative at z; err is the RMS of the
    scaled error components; row is the step's record, (t, h, y and the
    seven stages stage-major) packed as doubles by the namespace's pack.
    """
    comps = range(ndim)

    def combo(coefs, i):
        return " + ".join(["0.0"] + [f"{c!r} * k{j}_{i}" for j, c in enumerate(coefs)])

    def names(stem):
        return ", ".join(f"{stem}{i}" for i in comps)

    lines = [
        "def step(rhs, t, h, y, f, atol, rtol):",
        f"    {names('y')}, = y",
        f"    {names('k0_')}, = f",
    ]
    for s in range(1, 6):
        args = ", ".join(f"y{i} + h * ({combo(_A[s], i)})" for i in comps)
        lines.append(f"    {names(f'k{s}_')}, = rhs(t + {_C[s]!r} * h, {args})")
    lines += [f"    z{i} = y{i} + h * ({combo(_B, i)})" for i in comps]
    lines.append(f"    {names('k6_')}, = rhs(t + h, {names('z')})")
    for i in comps:
        # max(|y|, |z|) as a comparison, with the builtin's rule
        lines += [
            f"    ay{i}, az{i} = abs(y{i}), abs(z{i})",
            f"    r{i} = h * ({combo(_E, i)})"
            f" / (atol + rtol * (az{i} if az{i} > ay{i} else ay{i}))",
        ]
    stages = ", ".join(f"k{j}_{i}" for j in range(7) for i in comps)
    squares = " + ".join(["0.0"] + [f"r{i} * r{i}" for i in comps])
    lines.append(f"    return ({names('z')},), ({names('k6_')},), sqrt(({squares}) / {ndim}),"
                 f" pack(t, h, {names('y')}, {stages})")
    return "\n".join(lines) + "\n"


@cache
def _step_kernel(ndim: int):
    """The generated step function for ndim state components (see _step_source)."""
    namespace = {"sqrt": math.sqrt, "pack": struct.Struct(f"{2 + 8 * ndim}d").pack}
    exec(compile(_step_source(ndim), f"<dp5 step, ndim={ndim}>", "exec"), namespace)
    return namespace["step"]


def dense_output(res: RKResult, grid: np.ndarray, lo: int = 0, hi: int | None = None
                 ) -> list[np.ndarray]:
    """The quartic interpolant of res's steps on rows lo:hi of the grid, one array per component.

    grid is sorted and its row 0, at t = 0, takes the initial state.  Each
    later point takes the first step whose interval (t, t + h] contains
    it.  The arithmetic is the scalar formula
    y + h*s*(q0 + s*(q1 + s*(q2 + s*q3))) with s = (t_grid - t)/h and
    q_c = sum_j k_j*P[j][c] summed left to right, one ufunc per operation.
    Each block of _BLOCK points reads only the steps it touches.
    """
    g = grid[lo:hi]
    step_times, h, stages = res.step_times, res.step_sizes, res.stages
    outs = [np.empty(len(g)) for _ in res.step_values]
    first = 0
    if lo == 0 and len(g):
        for out, yi in zip(outs, res.step_values):
            out[0] = yi[0]
        first = 1
    for start in range(first, len(g), _BLOCK):
        gb = g[start:start + _BLOCK]
        idx = np.searchsorted(step_times[1:], gb, side="left")
        s = (gb - step_times[idx]) / h[idx]
        hs = h[idx] * s
        # the block lies in steps k0 .. k1 - 1; index them from k0
        k0, k1 = idx[0], idx[-1] + 1
        idx -= k0
        for i, (out, yi) in enumerate(zip(outs, res.step_values)):
            q = []
            for c in range(4):
                qc = 0.0
                for j in range(7):
                    qc = qc + stages[k0:k1, j, i] * _P[j][c]
                q.append(qc)
            acc = out[start:start + _BLOCK]  # a view: Horner in place, one rounding per operation
            np.multiply(s, q[3][idx], out=acc)
            acc += q[2][idx]
            acc *= s
            acc += q[1][idx]
            acc *= s
            acc += q[0][idx]
            acc *= hs
            acc += yi[k0:k1][idx]
    return outs
