"""Adaptive embedded Runge-Kutta integration (Dormand-Prince 5(4) pair).

Seven stages with FSAL, fifth-order propagation, fourth-order error
estimate, PI step-size control.  The state is a small tuple of floats and
the right-hand side is called with unpacked components; this keeps the per
step cost low enough that desk-scale runs with millions of fast-phase
oscillations finish in seconds.

Every accepted step is recorded (start time, size, state and stages).
After stepping, the pair's matched quartic dense-output polynomial is
evaluated on the whole caller-supplied output grid in one numpy pass, so
interpolated values carry the same accuracy as the step endpoints, and
they depend only on the step sequence, never on the grid.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain
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


@dataclass
class RKResult:
    grid_values: list[np.ndarray]   # one array per state component, on the grid
    n_accepted: int
    n_rejected: int
    max_error_ratio: float          # largest accepted scaled error (1.0 = at tolerance)
    step_times: np.ndarray          # initial time, then the end of every accepted step
    step_values: list[np.ndarray]   # one array per state component, at step_times


def solve(
    rhs: Callable[..., tuple],
    y0: Sequence[float],
    t_end: float,
    grid: np.ndarray,
    rtol: float,
    atol: float,
    max_step: float,
    max_steps: float = math.inf,
) -> RKResult:
    """Integrate dy/dt = rhs(t, *y) from t=0 to t_end over the given grid.

    grid must be sorted, start at 0 and end at t_end.  rhs receives the
    time followed by the unpacked state components and returns the
    derivative tuple.  The result also carries every accepted step, led by
    the initial point.  A run that needs more than max_steps accepted steps
    raises IntegrationFailure.
    """
    ndim = len(y0)
    y = tuple(float(v) for v in y0)
    t = 0.0
    f = rhs(t, *y)
    # conservative first step from the initial derivative magnitude
    d0 = max(max(abs(v) for v in y), 1e-8)
    d1 = max(max(abs(v) for v in f), 1e-8)
    h = min(max_step, 0.01 * d0 / d1, t_end)

    # per accepted step: start time, size, start state and the seven stages
    steps = array("d")
    n_acc = 0
    n_rej = 0
    rejects_in_a_row = 0
    err_prev = 1e-4
    max_err = 0.0
    eps = np.finfo(float).eps

    while t < t_end:
        if n_acc >= max_steps:
            raise IntegrationFailure(f"step budget of {max_steps} accepted steps spent", t, y)
        final_step = h >= t_end - t
        if final_step:
            h = t_end - t
        if h < 16.0 * eps * max(abs(t), t_end):
            raise IntegrationFailure("step size underflow", t, y)

        k = [f]
        for s in range(1, 6):
            a = _A[s]
            ys = tuple(
                y[i] + h * sum(a[j] * k[j][i] for j in range(s)) for i in range(ndim)
            )
            k.append(rhs(t + _C[s] * h, *ys))
        z = tuple(
            y[i] + h * sum(_B[j] * k[j][i] for j in range(6)) for i in range(ndim)
        )
        k.append(rhs(t + h, *z))

        err = 0.0
        for i in range(ndim):
            e = h * sum(_E[j] * k[j][i] for j in range(7))
            sc = atol + rtol * max(abs(y[i]), abs(z[i]))
            r = e / sc
            err += r * r
        err = math.sqrt(err / ndim)

        if err <= 1.0:
            steps.extend(chain((t, h), y, *k))
            # land exactly on t_end; t + h can fall an ulp short of it
            t = t_end if final_step else t + h
            y = z
            f = k[6]
            n_acc += 1
            rejects_in_a_row = 0
            if err > max_err:
                max_err = err
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** -_PI_ALPHA * err_prev ** _PI_BETA
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = max(err, 1e-4)
            h = min(h * factor, max_step)
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
    return RKResult(
        _dense_output(grid, step_times, rec[:, 1], step_values, stages),
        n_acc,
        n_rej,
        max_err,
        step_times,
        step_values,
    )


def _dense_output(grid, step_times, h, step_values, stages) -> list[np.ndarray]:
    """Evaluate the quartic interpolant of the recorded steps on the grid.

    Each grid point after the first takes the first step whose interval
    (t, t + h] contains it.  The arithmetic is the scalar formula
    y + h*s*(q0 + s*(q1 + s*(q2 + s*q3))) with s = (t_grid - t)/h and
    q_c = sum_j k_j*P[j][c] summed left to right, one ufunc per operation.
    """
    idx = np.searchsorted(step_times[1:], grid[1:], side="left")
    s = (grid[1:] - step_times[idx]) / h[idx]
    hs = h[idx] * s
    outs = []
    for i, yi in enumerate(step_values):
        q = []
        for c in range(4):
            qc = 0.0
            for j in range(7):
                qc = qc + stages[:, j, i] * _P[j][c]
            q.append(qc)
        out = np.empty(len(grid))
        out[0] = yi[0]
        acc = out[1:]  # a view: Horner in place, one rounding per operation
        np.multiply(s, q[3][idx], out=acc)
        acc += q[2][idx]
        acc *= s
        acc += q[1][idx]
        acc *= s
        acc += q[0][idx]
        acc *= hs
        acc += yi[idx]
        outs.append(out)
    return outs
