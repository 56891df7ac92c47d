"""Structure-preserving and oracle time stepping, dual clocks, event logging.

Regularized systems are integrated by the implicit midpoint rule, the one
method of integrate: it is symplectic for arbitrary smooth Hamiltonians,
which matters here because the regularized Hamiltonian couples P2^2 with
Q1^2 and is not separable.
Each step is a fixed-point solve.  A march seeds it by quintic
extrapolation through its last six accepted states, from backward
differences it carries from step to step, at no field evaluation, and the
first sweep then nearly always converges; the first five steps of a march
use the explicit-Euler guess.  integrate, the one way to take midpoint steps,
runs one fused loop per state size, 2-D or 4-D, on local floats: predictor,
first sweep, convergence and finiteness tests, event test, clock and
recording, one packed row (tau, t, state) a sample; later sweeps, the
Newton fallback and event localization are shared helpers it calls only
when needed, and the invariant and its level guard run in numpy on each
block of recorded samples.
The first sweep's convergence test has two stages.  Every component's
change within the bare tolerance tol accepts the step at once; only a step
that fails that runs _solve's test against tol * (1 + max|y_k|), and the
finiteness test.  That decides every step as the scaled test alone would:
tol <= tol * (1 + max|y_k|) in floating point, and a finite change needs a
finite new state.
Collision events are bisected to adjacent floats, by the package's one
bisection _bisect, on the step's cubic Hermite interpolant of Q1.  Physical
time is accumulated alongside fictitious time by the midpoint rule for
dt/dtau, in two pieces on a step with an event, split at the event.

Trajectory CSV files go through one writer, _CsvWriter.  A simulation opens
it before the march and hands it each block of samples the level guard has
passed (integrate's on_block): a helper process forked at opening formats
blocks from the front while the march goes on, and when the march ends this
process formats the back half of the blocks the helper has not claimed.  A
file written after the fact (write_regularized_csv without a writer,
write_physical_csv, the level set) hands the same writer all its blocks at
once.  Where no helper may be forked, the writer formats each block as it
comes, with the same bytes.

A conventional adaptive Runge-Kutta pair (through scipy) integrates the
physical chart as an equivalence oracle; it is valid only away from
collisions and aborts at a configurable proximity guard, which is precisely
the failure mode the regularized chart removes.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import stat
import struct
import sys
import tempfile
import threading
import warnings
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import MassParams, RingConfig
from .errors import CollisionError, ParameterError, StepFailure
from .physical import hamiltonian, make_physical_rhs
from .symplectic import fd_jacobian

__all__ = [
    "IntegratorConfig",
    "Event",
    "Trajectory",
    "integrate",
    "integrate_physical_oracle",
    "write_regularized_csv",
    "write_physical_csv",
    "write_events_json",
    "write_json",
]

METHODS = ("implicit_midpoint",)

# Largest |invariant| a recorded sample may show before a run is given up as
# off its level.  Bounded runs stay within O(dtau^2) of it (about 2e-6 on the
# acceptance runs); an escape whose dt/dtau outgrows the fixed tau step drifts
# by O(1e3) and would otherwise still finish as a success.
INVARIANT_LIMIT = 1e-3

# Recorded samples per evaluation of integrate's invariant and its level guard.
# The Sitnikov Gamma on a block of 4096 columns costs ~0.03 us a sample, one
# call on a state ~0.8 us (2-core Xeon VM, Python 3.11, numpy 2.4).
GUARD_BLOCK = 4096

# A recorded sample of a march on n-D states: one row (tau, t, *state) of
# native doubles in the sample table.
_ROWS = {n: struct.Struct(f"{2 + n}d") for n in (2, 4)}


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "implicit_midpoint"
    step: float = 1e-3
    newton_tol: float = 1e-13
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}; choose from {METHODS}")
        if not 0.0 < self.step < math.inf:
            raise ParameterError(f"step must be positive and finite, got {self.step}")
        if not 0.0 < self.newton_tol < math.inf:
            raise ParameterError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        if not self.newton_max_iter >= 1:
            raise ParameterError(f"newton_max_iter must be at least 1, got {self.newton_max_iter}")


@dataclass(frozen=True)
class Event:
    """A localized happening along a trajectory.

    index is the position of the last recorded sample at or before the event;
    tau and state are sub-step interpolated at the event itself; t is the
    clock's midpoint rule from the step's start to it, so it lies between the
    t of the samples around it, and equals the step's t at the step's end.
    """

    index: int
    kind: str
    tau: float
    t: float
    state: tuple
    detail: Optional[str] = None


@dataclass
class Trajectory:
    """Ordered samples of one run with both clocks and its event log.

    tau is strictly increasing; t is nondecreasing (the physical clock can
    only freeze, at collisions, never run backwards).  invariant is the run's
    invariant at each sample (Gamma from integrate, H from the oracle) or None.
    From integrate, tau, t and states are column views of one table of
    sample rows, not contiguous arrays of their own.
    """

    tau: np.ndarray
    t: np.ndarray
    states: np.ndarray
    invariant: Optional[np.ndarray] = None
    events: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.tau)

    def collision_events(self):
        return [e for e in self.events if e.kind == "collision"]


def _tuple_state(y) -> tuple:
    return tuple(float(v) for v in np.asarray(y, dtype=float).ravel())


def _solve(field, y, a, dstep, tol, max_iter):
    """Sweeps 1, 2, ... of the midpoint solve for the step from y, starting
    from a, the iterate of the march's own first sweep (sweep 0).

    Each sweep is a <- y + dstep * field((y + a)/2), until the largest
    component change is within tol * (1 + max|y_k|); the damped Newton solve
    takes over after the tenth sweep.  max() over the components keeps its
    first argument against a NaN, so the NaN test sees one only in the first
    component; integrate's finiteness test catches the others.
    """
    n = range(len(y))
    scale = 1.0 + max([abs(v) for v in y])
    bound = tol * scale
    for it in range(1, max_iter):
        f = field(tuple([0.5 * (y[k] + a[k]) for k in n]))
        c = tuple([y[k] + dstep * f[k] for k in n])
        delta = max([abs(c[k] - a[k]) for k in n])
        a = c
        if delta != delta:  # NaN contaminated the iteration
            raise _midpoint_nan()
        if delta <= bound:
            return a
        if it >= 9:
            return _midpoint_newton(field, y, a, dstep, tol, max_iter - it - 1, scale)
    raise _midpoint_stalled(field, y, a, dstep, max_iter)


def _midpoint_nan() -> StepFailure:
    return StepFailure("non-finite value in the midpoint iteration", residual=float("nan"))


def _midpoint_stalled(field, y, yn, dstep, max_iter) -> StepFailure:
    res = _np_residual(field, np.array(y), np.array(yn), dstep)
    return StepFailure(
        f"implicit midpoint failed to converge within {max_iter} iterations",
        residual=float(np.max(np.abs(res))),
    )


def _midpoint_newton(field, y, yn, dstep, tol, budget, scale):
    """Damped Newton fallback for steps too large for fixed-point contraction."""
    n = len(y)
    yv = np.array(y)
    x = np.array(yn)
    res = _np_residual(field, yv, x, dstep)
    rnorm = float(np.max(np.abs(res)))
    for _ in range(max(budget, 1)):
        mid = 0.5 * (yv + x)
        jac = fd_jacobian(lambda w: field(tuple(w)), mid, step=1e-7)
        try:
            dx = np.linalg.solve(np.eye(n) - 0.5 * dstep * jac, -res)
        except np.linalg.LinAlgError as exc:
            raise StepFailure("singular Newton system in midpoint solve", residual=rnorm) from exc
        damping = 1.0
        for _ in range(30):
            x_try = x + damping * dx
            res_try = _np_residual(field, yv, x_try, dstep)
            rt = float(np.max(np.abs(res_try)))
            if rt < rnorm or rt <= tol * scale:
                x, res, rnorm = x_try, res_try, rt
                break
            damping *= 0.5
        else:
            raise StepFailure("midpoint Newton damping underflow", residual=rnorm)
        if rnorm <= tol * scale:
            return tuple(x)
    raise StepFailure(
        "implicit midpoint Newton fallback exhausted its iteration budget",
        residual=rnorm,
    )


def _np_residual(field, y, x, dstep):
    f = np.array(field(tuple(0.5 * (y + x))))
    return x - y - dstep * f


def _hermite_eval(s, y0, y1, d0, d1):
    """Cubic Hermite on [0, 1] with endpoint values/derivatives (d scaled by dtau)."""
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1


def _bisect(f, lo, hi, flo):
    """Root of f in a sign-change bracket [lo, hi] with flo = f(lo), halved
    until lo and hi are adjacent floats (at most 200 halvings) or f hits an
    exact zero."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo = mid
            flo = fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _locate_crossing(y_prev, y_next, f_prev, f_next, dstep):
    """Fractional position s in [0, 1] of the root of Q1 on the step's cubic
    Hermite interpolant, bisected down to adjacent floats.  A step that lands
    on 0 has its root at s = 1, the step's end, not at a rounding zero of
    the cubic just before it."""
    if y_next[0] == 0.0:
        return 1.0
    ya, yb = y_prev[0], y_next[0]
    d0, d1 = dstep * f_prev[0], dstep * f_next[0]
    return _bisect(lambda s: _hermite_eval(s, ya, yb, d0, d1), 0.0, 1.0, ya)


def _event(field, y_prev, y, dstep, i, t, clock, index):
    """The collision in step i, from y_prev to y, and the clock at the step's
    end, given t at its start.  The event sits at the root of Q1 on the
    step's cubic Hermite interpolant; index is the last sample before it."""
    f_prev = field(y_prev)
    f_next = field(y)
    s = _locate_crossing(y_prev, y, f_prev, f_next, dstep)
    state = tuple(
        _hermite_eval(s, y_prev[k], y[k], dstep * f_prev[k], dstep * f_next[k])
        for k in range(len(y))
    )
    tau = (i - 1 + s) * dstep
    if clock is None:
        t_e, t = tau, i * dstep
    else:
        # the midpoint clock on each side of the event, so that
        # t_prev <= t_e <= t, and s = 1 dates it at the step's own t
        t_e = t + s * dstep * clock(0.5 * (y_prev[0] + state[0]))
        t = t_e + (1.0 - s) * dstep * clock(0.5 * (state[0] + y[0]))
    return Event(index=index, kind="collision", tau=tau, t=t_e, state=state), t


def _non_finite(i, dstep) -> StepFailure:
    return StepFailure(f"state became non-finite at step {i} (tau={i * dstep})",
                       residual=float("nan"))


def _off_level(inv_max, tau) -> StepFailure:
    return StepFailure(
        f"|invariant| reached {inv_max:.3e} at tau={tau}, past the "
        f"limit {INVARIANT_LIMIT:g}: the run has left its level",
        residual=inv_max,
    )


def integrate(
    field,
    y0,
    span: float,
    cfg: IntegratorConfig,
    *,
    time_scale: Optional[Callable] = None,
    invariant: Optional[Callable] = None,
    record_every: int = 1,
    stop_after: Optional[int] = None,
    on_block: Optional[Callable] = None,
) -> Trajectory:
    """March a state field over a tau interval of the given length.

    time_scale(Q1) provides dt/dtau for the dual clock from the first state
    component alone, the only one any clock here reads (identity clock when
    omitted), by the midpoint rule over each step, or over its two pieces on
    either side of an event.  Every sign change of Q1, the first state
    component, is logged as a collision event with sub-step localization; a
    step that lands exactly on 0 from a nonzero value is an event at its end,
    and the step out of that 0 is none.  An event changes no state.
    invariant(columns), when given, is evaluated once on every recorded
    sample, a block of GUARD_BLOCK samples at a time: columns is the block's
    states as an (n, k) array, one row a component, and the invariant returns
    the k values (Problem.gamma takes both forms).  The values are the
    trajectory's invariant column and their largest magnitude is
    metadata["invariant_max"].  on_block(tau, t, states, values), when given
    (with an invariant), receives each block once the level guard has passed
    it: the block's clocks, states (k, n) and invariant values, ending at
    the sample a failed guard cuts the run at, so that its blocks add up to
    the trajectory returned or raised.  It runs inside the march, which
    waits for it.

    stop_after=k makes the k-th event terminal: the march ends at the step in
    which that event was localized, and the state after that step is recorded
    as the last sample whatever record_every says, so tau[-1] is how far the
    run went and span is only a cap.  Exactly k events come back.  With None
    the march covers the whole span.

    Raises StepFailure carrying the partial trajectory if a step cannot be
    completed, the state stops being finite, or a recorded sample's
    |invariant| exceeds INVARIANT_LIMIT.  The level guard runs on each block
    as it fills, so it fires up to GUARD_BLOCK - 1 samples after the sample
    that trips it; the partial trajectory still ends at that sample, with the
    events logged before it, and the guard's failure comes before any later
    one in the same block.
    """
    y = _tuple_state(y0)
    if span < 0.0:
        raise ParameterError(f"span must be nonnegative, got {span}")
    if stop_after is not None and stop_after < 1:
        raise ParameterError(f"stop_after must be a positive count, got {stop_after}")
    if record_every < 1:
        raise ParameterError(f"record_every must be at least 1, got {record_every}")
    if on_block is not None and invariant is None:
        raise ParameterError("on_block takes the invariant's values, and no invariant was given")
    n = len(y)
    # the sizes of the regularized systems: 2 (reduced, kepler1d), 4 (sitnikov)
    if n not in (2, 4):
        raise ParameterError(f"the implicit midpoint method takes 2-D or 4-D states, got {n}-D")
    n_steps = max(int(round(span / cfg.step)), 1) if span > 0.0 else 0
    dstep = span / n_steps if n_steps else 0.0

    # one packed row (tau, t, *state) a recorded sample, appended to one byte
    # table: 0.36 us a sample on a 2-D march, against 1.11 us for appends to
    # three buffers (2-vCPU Xeon VM, Python 3.11)
    width = _ROWS[n].size
    table = bytearray(_ROWS[n].pack(0.0, 0.0, *y))
    invs = None if invariant is None else array("d")
    events: list[Event] = []

    def settle():
        """The invariant on the samples recorded since the last call, and the
        level guard on them; returns the table's size in bytes at which the
        next call is due."""
        hi = len(table) // width
        lo = hi if invs is None else len(invs)
        if lo < hi:
            # a copy of the block: a view would pin the table against appends
            block = np.frombuffer(table[lo * width:hi * width]).reshape(hi - lo, 2 + n)
            values = np.broadcast_to(np.asarray(invariant(block[:, 2:].T), dtype=float),
                                     (hi - lo,))
            # the running max over the block, NaN-blind as the scalar max()
            # of a march; blocks before it all stayed within the limit, and
            # sample 0 alone is never tested, as a march tests from its first step
            peak = np.fmax.accumulate(np.abs(values))
            over = np.flatnonzero(peak > INVARIANT_LIMIT)
            k = max(lo + int(over[0]), 1) if over.size else hi
            kept = values[:k + 1 - lo]
            invs.frombytes(kept.tobytes())
            if on_block is not None:
                rows = block[:len(kept)]
                on_block(rows[:, 0], rows[:, 1], rows[:, 2:], kept)
            if k < hi:  # cut the run at sample k, as if the march had stopped there
                del table[(k + 1) * width:]
                events[:] = [e for e in events if e.index < k]
                raise _off_level(float(peak[k - lo]), float(block[k - lo, 0]))
        return (hi + GUARD_BLOCK) * width

    march = _march2 if n == 2 else _march4
    try:
        try:
            march(field, y, dstep, n_steps, cfg.newton_tol, cfg.newton_max_iter,
                  time_scale, stop_after, record_every, table, events, settle)
        except StepFailure:
            settle()  # an off-level sample before the failure fails the run first
            raise
        settle()
    except StepFailure as exc:
        exc.trajectory = _bundle(table, n, invs, events)
        raise
    return _bundle(table, n, invs, events)


# The two marches below are the hot loop of integrate, one per state size,
# on local floats only: a step calls nothing but the field and the clock
# unless it needs a second sweep (_solve) or holds an event (_event), and a
# recorded sample calls settle only when it completes a block.  Both do the
# same operations in the same order.
#
# The predictor is the quintic extrapolation
# 6 y - 15 y1 + 20 y2 - 15 y3 + 6 y4 - y5 through the last six accepted
# states y, y1, ..., y5.  It costs no field evaluation and starts
# O(dstep^6) from the solution, so the first sweep nearly always passes the
# stopping test.  It is evaluated as y + 5 (d0 - d3) - 10 (d1 - d2) + d4 on
# the backward differences d0 = y - y1, ..., d4 = y4 - y5, carried from step
# to step (d<j><k> is d_j of component k): the same polynomial, but rounded
# at the size of the differences rather than 63 ulp of y, which at
# newton_tol 1e-15 would cost a second sweep.  The first five steps, before
# that history exists, take the explicit-Euler guess y + dstep * field(y),
# one evaluation.  Field evaluations per step on the 1e5-step Sitnikov
# benchmark run: 4.24 with the Euler guess throughout, 2.45 with quadratic
# and 1.01 with quintic extrapolation.  A sextic one saves under 1% there
# and pays one more Euler start step on every short run.
#
# The first sweep's stopping test comes in two stages.  The fast one,
# -tol <= c_k - a_k <= tol for every component k as chained comparisons,
# calls no builtin, and almost every step passes it by orders of magnitude,
# since the predictor starts O(dstep^6) from the solution.  Only a step that
# fails it takes the first sweep's test of _solve, with its max() rule and
# NaN test, then _solve if needed, then the finiteness test.  The fast stage
# accepts no step that the second would refuse: tol * (1 + max|y_k|) >= tol
# holds in floating point, because rounding is monotone, and it needs a
# finite change c_k - a_k in every component, which c_k = +-inf or NaN
# cannot give, so the finiteness test would pass too.  So every accepted
# state, sweep count and failure is that of the scaled test alone.
# (a - a) is 0.0 for a finite float and NaN otherwise, so the sum of those
# terms is the finiteness test of the new state.

def _march2(field, y, dstep, n_steps, tol, max_iter, clock, stop_after, record_every,
            table, events, settle):
    y0, y1 = y
    d00 = d10 = d20 = d30 = d40 = 0.0
    d01 = d11 = d21 = d31 = d41 = 0.0
    t = 0.0
    pack, width = _ROWS[2].pack, _ROWS[2].size
    due = GUARD_BLOCK * width
    stopped = False
    for i in range(1, n_steps + 1):
        if i > 5:
            a0 = y0 + (5.0 * (d00 - d30) - 10.0 * (d10 - d20) + d40)
            a1 = y1 + (5.0 * (d01 - d31) - 10.0 * (d11 - d21) + d41)
        else:
            f0, f1 = field((y0, y1))
            a0 = y0 + dstep * f0
            a1 = y1 + dstep * f1
        f0, f1 = field((0.5 * (y0 + a0), 0.5 * (y1 + a1)))
        c0 = y0 + dstep * f0
        c1 = y1 + dstep * f1
        if not (-tol <= c0 - a0 <= tol and -tol <= c1 - a1 <= tol):
            bound = tol * (1.0 + max(abs(y0), abs(y1)))
            delta = max(abs(c0 - a0), abs(c1 - a1))
            if not delta <= bound:
                if delta != delta:
                    raise _midpoint_nan()
                c0, c1 = _solve(field, (y0, y1), (c0, c1), dstep, tol, max_iter)
            if (c0 - c0) + (c1 - c1) != 0.0:
                raise _non_finite(i, dstep)
        d40, d30, d20, d10, d00 = d30, d20, d10, d00, c0 - y0
        d41, d31, d21, d11, d01 = d31, d21, d11, d01, c1 - y1

        if y0 * c0 < 0.0 or (c0 == 0.0 and y0 != 0.0):
            event, t = _event(field, (y0, y1), (c0, c1), dstep, i, t, clock,
                              len(table) // width - 1)
            events.append(event)
            stopped = len(events) == stop_after
        elif clock is None:
            t = i * dstep
        else:
            t += dstep * clock(0.5 * (y0 + c0))
        y0, y1 = c0, c1

        if stopped or i % record_every == 0 or i == n_steps:
            table += pack(i * dstep, t, y0, y1)
            if len(table) == due:
                due = settle()
            if stopped:
                break


def _march4(field, y, dstep, n_steps, tol, max_iter, clock, stop_after, record_every,
            table, events, settle):
    y0, y1, y2, y3 = y
    d00 = d10 = d20 = d30 = d40 = 0.0
    d01 = d11 = d21 = d31 = d41 = 0.0
    d02 = d12 = d22 = d32 = d42 = 0.0
    d03 = d13 = d23 = d33 = d43 = 0.0
    t = 0.0
    pack, width = _ROWS[4].pack, _ROWS[4].size
    due = GUARD_BLOCK * width
    stopped = False
    for i in range(1, n_steps + 1):
        if i > 5:
            a0 = y0 + (5.0 * (d00 - d30) - 10.0 * (d10 - d20) + d40)
            a1 = y1 + (5.0 * (d01 - d31) - 10.0 * (d11 - d21) + d41)
            a2 = y2 + (5.0 * (d02 - d32) - 10.0 * (d12 - d22) + d42)
            a3 = y3 + (5.0 * (d03 - d33) - 10.0 * (d13 - d23) + d43)
        else:
            f0, f1, f2, f3 = field((y0, y1, y2, y3))
            a0 = y0 + dstep * f0
            a1 = y1 + dstep * f1
            a2 = y2 + dstep * f2
            a3 = y3 + dstep * f3
        f0, f1, f2, f3 = field(
            (0.5 * (y0 + a0), 0.5 * (y1 + a1), 0.5 * (y2 + a2), 0.5 * (y3 + a3))
        )
        c0 = y0 + dstep * f0
        c1 = y1 + dstep * f1
        c2 = y2 + dstep * f2
        c3 = y3 + dstep * f3
        if not (-tol <= c0 - a0 <= tol and -tol <= c1 - a1 <= tol
                and -tol <= c2 - a2 <= tol and -tol <= c3 - a3 <= tol):
            bound = tol * (1.0 + max(abs(y0), abs(y1), abs(y2), abs(y3)))
            delta = max(abs(c0 - a0), abs(c1 - a1), abs(c2 - a2), abs(c3 - a3))
            if not delta <= bound:
                if delta != delta:
                    raise _midpoint_nan()
                c0, c1, c2, c3 = _solve(field, (y0, y1, y2, y3), (c0, c1, c2, c3),
                                        dstep, tol, max_iter)
            if (c0 - c0) + (c1 - c1) + (c2 - c2) + (c3 - c3) != 0.0:
                raise _non_finite(i, dstep)
        d40, d30, d20, d10, d00 = d30, d20, d10, d00, c0 - y0
        d41, d31, d21, d11, d01 = d31, d21, d11, d01, c1 - y1
        d42, d32, d22, d12, d02 = d32, d22, d12, d02, c2 - y2
        d43, d33, d23, d13, d03 = d33, d23, d13, d03, c3 - y3

        if y0 * c0 < 0.0 or (c0 == 0.0 and y0 != 0.0):
            event, t = _event(field, (y0, y1, y2, y3), (c0, c1, c2, c3), dstep, i, t, clock,
                              len(table) // width - 1)
            events.append(event)
            stopped = len(events) == stop_after
        elif clock is None:
            t = i * dstep
        else:
            t += dstep * clock(0.5 * (y0 + c0))
        y0, y1, y2, y3 = c0, c1, c2, c3

        if stopped or i % record_every == 0 or i == n_steps:
            table += pack(i * dstep, t, y0, y1, y2, y3)
            if len(table) == due:
                due = settle()
            if stopped:
                break


def _bundle(table, n, invs, events) -> Trajectory:
    """Wrap the sample table as arrays, uncopied: tau, t and states are views
    of its columns.  integrate bundles only when the march has returned or
    raised, so nothing appends after."""
    rows = np.frombuffer(table).reshape(-1, 2 + n)
    inv = None if invs is None else np.frombuffer(invs)
    return Trajectory(
        tau=rows[:, 0],
        t=rows[:, 1],
        states=rows[:, 2:],
        invariant=inv,
        events=events,
        # NaN-blind, as the guard is
        metadata={} if inv is None else {"invariant_max": float(np.fmax.reduce(np.abs(inv)))},
    )


def integrate_physical_oracle(
    y0,
    t_span: float,
    params: MassParams,
    ring: RingConfig,
    *,
    guard: float = 1e-4,
    stop_at_q: Optional[float] = None,
) -> Trajectory:
    """Reference adaptive integration in the physical chart.

    Terminates with a proximity event when the separation q1 - q2 drops to the
    guard distance, which must be positive (the chart is singular at q1 = q2;
    near-collision work belongs to the regularized chart).  Optionally
    terminates with an escape event when q1 reaches stop_at_q.  Both clocks
    coincide in this chart.  The invariant column is H at each sample.  DOP853
    runs at the relative tolerance 1e-12 and an absolute one of 1e-2 times that.
    """
    if not guard > 0.0:
        raise ParameterError(f"the proximity guard must be positive, got {guard}")
    try:
        from scipy.integrate import solve_ivp
    except ImportError as exc:  # scipy is the optional oracle extra
        raise RuntimeError("the physical-chart oracle needs scipy: "
                           "pip install 'collreg[oracle]'") from exc

    tol = 1e-12
    y0 = _tuple_state(y0)
    if not y0[0] - y0[1] > guard:
        raise CollisionError(
            f"initial separation {y0[0] - y0[1]} is already inside the guard {guard}"
        )
    rhs_fast = make_physical_rhs(params, ring)

    def rhs(_, yv):
        return rhs_fast(tuple(yv))

    def proximity(_, yv):
        return (yv[0] - yv[1]) - guard

    proximity.terminal = True
    proximity.direction = -1.0
    ev_fns = [proximity]

    if stop_at_q is not None:
        def escape(_, yv):
            return yv[0] - stop_at_q

        escape.terminal = True
        escape.direction = 1.0
        ev_fns.append(escape)

    sol = solve_ivp(
        rhs,
        (0.0, t_span),
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-2,
        events=ev_fns,
        dense_output=True,
    )
    if sol.status == -1:
        raise StepFailure(f"physical oracle failed: {sol.message}")
    states = sol.y.T
    events = []
    # t_events holds the proximity times, then the escape times when asked for
    for found, kind, detail in zip(sol.t_events, ("collision", "escape_threshold"),
                                   ("proximity_abort", None)):
        if len(found):
            te = float(found[0])
            events.append(Event(index=len(sol.t) - 1, kind=kind, tau=te, t=te,
                                state=tuple(sol.sol(te)), detail=detail))
    energy = np.array([hamiltonian(s, params, ring) for s in states])
    return Trajectory(
        tau=sol.t,
        t=sol.t,
        states=states,
        invariant=energy,
        events=events,
        metadata={"dense": sol.sol, "energy_drift": float(abs(energy[-1] - energy[0]))},
    )


# The trajectory writer's pipe message: a block's offset and size in the raw
# file and its row count; and the raw file's head: the blocks the helper has
# claimed, and the block it must stop before.
_MESSAGE = struct.Struct("qqq")
_CLAIMS = struct.Struct("qq")


class _CsvWriter:
    """One CSV file: its header, then row_fmt % row for every row of the
    blocks handed to write, in order.  A block is given as columns of equal
    length, each of one or more values a row.  finish(rows) completes the
    file once all rows, as many as it is told, have come.

    rows is the number of rows expected.  From two blocks of GUARD_BLOCK
    rows on, in a process that may fork (_can_fork), a helper is forked at
    opening; fewer rows do not pay for its fork.  It claims blocks from the
    front as they arrive, formats them and writes them into the file, while
    this process goes on: write puts a block's floats into an unlinked
    temporary file and sends only their place down a pipe, so it never
    waits on the helper.  finish
    takes the back half of the blocks the helper has not claimed, formats
    them into a second temporary file, waits for the helper and appends
    them.  Without a helper, write formats each block into the file as it
    comes.  The bytes are the same either way.  Closing a writer that was
    not finished stops its helper and removes its file, so that only a
    finished CSV is left at path.
    """

    def __init__(self, path, header, row_fmt, rows):
        self._fh = open(path, "wb")
        self.path = path
        self._fmt = row_fmt
        self._rows = 0
        self._finished = False
        self._pid = self._raw = self._outbox = None  # _fork's, with a helper
        try:
            self._fh.write(header.encode())
            if rows >= 2 * GUARD_BLOCK and _can_fork():
                self._fork()
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _fork(self):
        self._blocks = []  # (offset, size, rows) of each block in the raw file
        self._pending = bytearray()  # messages the pipe had no room for yet
        self._raw = tempfile.TemporaryFile()
        self._raw.write(_CLAIMS.pack(0, 1 << 62))  # no stop until finish sets one
        self._raw.flush()
        inbox, self._outbox = os.pipe()
        self._fh.flush()  # the helper inherits no buffered bytes
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns about forking beside native threads (numpy's
                # BLAS pool); the helper only formats floats and writes its file
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the helper, which leaves by os._exit whatever happens
                code = 1
                try:
                    os.close(self._outbox)
                    with open(inbox, "rb") as messages:
                        self._serve(messages)
                    code = 0
                finally:
                    os._exit(code)
        finally:
            os.close(inbox)
        self._pid = pid
        os.set_blocking(self._outbox, False)

    def _serve(self, messages):
        """The helper's loop: claim the blocks in order as their messages
        arrive, format each into the file, and stop at the first block that
        finish keeps for the other process, or when the pipe closes."""
        with open(self._fh.fileno(), "wb", closefd=False) as fh:
            block = 0
            while (msg := messages.read(_MESSAGE.size)) and self._claim(block):
                fh.write(self._formatted(*_MESSAGE.unpack(msg)))
                block += 1

    @contextlib.contextmanager
    def _claims(self):
        """The raw file's head, read under a lock on the file that this
        process and the helper take in turn (fcntl locks are per process)."""
        import fcntl

        fd = self._raw.fileno()
        fcntl.lockf(fd, fcntl.LOCK_EX)
        try:
            yield _CLAIMS.unpack(os.pread(fd, _CLAIMS.size, 0))
        finally:
            fcntl.lockf(fd, fcntl.LOCK_UN)

    def _claim(self, block) -> bool:
        with self._claims() as (_, stop):
            if block < stop:
                os.pwrite(self._raw.fileno(), _CLAIMS.pack(block + 1, stop), 0)
        return block < stop

    def _formatted(self, offset, size, rows) -> bytes:
        return _format(self._fmt, rows,
                       np.frombuffer(os.pread(self._raw.fileno(), size, offset)).tolist())

    def write(self, *columns):
        block = np.column_stack(columns)
        rows = len(block)
        if self._pid is None:
            self._fh.write(_format(self._fmt, rows, block.ravel().tolist()))
        else:
            offset = self._raw.tell()
            self._raw.write(block)
            self._raw.flush()
            self._blocks.append((offset, block.nbytes, rows))
            try:
                self._send(_MESSAGE.pack(offset, block.nbytes, rows))
            except BrokenPipeError:  # before finish the helper leaves only by failing
                self._join()
                raise
        self._rows += rows

    def _send(self, msg):
        """msg and any messages still queued, as far as the pipe takes them
        without waiting; finish makes the pipe wait for the rest."""
        self._pending += msg
        try:
            while self._pending:
                del self._pending[:os.write(self._outbox, self._pending)]
        except BlockingIOError:
            pass

    def finish(self, rows):
        if rows != self._rows:
            raise ValueError(f"a CSV of {rows} rows was handed {self._rows}")
        if self._pid is not None:
            with self._claims() as (claimed, _):
                stop = claimed + (len(self._blocks) - claimed) // 2
                os.pwrite(self._raw.fileno(), _CLAIMS.pack(claimed, stop), 0)
            os.set_blocking(self._outbox, True)
            with contextlib.suppress(BrokenPipeError):  # a helper that reached stop has left
                self._send(b"")
            os.close(self._outbox)
            self._outbox = None
            with tempfile.TemporaryFile() as back:
                for block in self._blocks[stop:]:
                    back.write(self._formatted(*block))
                self._join()
                back.seek(0)
                shutil.copyfileobj(back, self._fh)  # in pieces of shutil.COPY_BUFSIZE
        self._finished = True
        self.close()

    def _join(self):
        pid, self._pid = self._pid, None
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            raise OSError(f"the CSV writer's helper process exited with code {code}; "
                          f"{self.path} is not written")

    def close(self):
        """Stop the helper if it still runs, and close the files; remove the
        CSV of a writer that was not finished."""
        if self._pid is not None:
            import signal

            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._outbox is not None:
            os.close(self._outbox)
            self._outbox = None
        if self._raw is not None:
            self._raw.close()
        if not (self._finished or self._fh.closed):
            # only the regular file this writer made, not a device or a file
            # put at path since
            made = os.fstat(self._fh.fileno())
            with contextlib.suppress(OSError):
                if stat.S_ISREG(made.st_mode) and os.path.samestat(made, os.stat(self.path)):
                    os.unlink(self.path)
        self._fh.close()


def _format(row_fmt, rows, values) -> bytes:
    """row_fmt % row for rows rows of values, a flat list of plain floats
    row after row, by one % operation."""
    return ((row_fmt * rows) % tuple(values)).encode()


def _can_fork() -> bool:
    """Whether a helper process may be forked: fork exists, no other Python
    thread runs that could hold a lock the helper needs, and this process is
    not a daemonic multiprocessing worker, which may have no children (a
    process that never imported multiprocessing is none)."""
    mp = sys.modules.get("multiprocessing")
    return (hasattr(os, "fork") and threading.active_count() == 1
            and not (mp is not None and mp.current_process().daemon))


def _write_csv(path, header, row_fmt, columns) -> None:
    """Write header, then row_fmt % (row k of every column) for every sample
    k.  A column is an array of one or more values a sample; in a trajectory
    the last is the invariant, which may be missing (None) and is then
    refused.  The writer is handed every block at once."""
    if columns[-1] is None:
        raise ParameterError("the trajectory carries no invariant column to write")
    rows = len(columns[0])
    with _CsvWriter(path, header, row_fmt, rows) as csv:
        for a in range(0, rows, GUARD_BLOCK):
            csv.write(*(c[a:a + GUARD_BLOCK] for c in columns))
        csv.finish(rows)


def _regularized_layout(dim):
    # a reduced state (Q1, P1) is written with the zeros %.17g gives for 0.0
    state_fmt = "%.17g,0,%.17g,0," if dim == 2 else "%.17g," * dim
    return "tau,t,Q1,Q2,P1,P2,gamma\n", "%.17g,%.17g," + state_fmt + "%.17g\n"


def open_regularized_csv(path, dim, samples) -> _CsvWriter:
    """The regularized CSV at path, opened for a run of dim-D states that is
    to record about samples samples: integrate(..., on_block=csv.write)
    feeds it each block of samples as the level guard passes it, and
    write_regularized_csv(traj, path, csv) finishes it.  Opening it, before
    the march, forks the helper that formats those blocks while the march
    goes on, when samples are enough to pay for it (see _CsvWriter)."""
    return _CsvWriter(path, *_regularized_layout(dim), samples)


def write_regularized_csv(traj: Trajectory, path, csv=None) -> None:
    """CSV schema: tau,t,Q1,Q2,P1,P2,gamma (reduced runs carry Q2 = P2 = 0).

    17 significant digits, '.' decimal separator, LF line endings: identical
    configs must produce byte-identical files.  The gamma column is the
    trajectory's invariant; a trajectory without one raises ParameterError.
    csv, when given, is the writer open_regularized_csv opened on path, and
    has been handed every sample of traj; this finishes it, and writes no
    rows of its own.
    """
    if csv is not None:
        if os.fspath(path) != os.fspath(csv.path):
            raise ValueError(f"the CSV writer of {csv.path} was given to write {path}")
        csv.finish(len(traj))
        return
    _write_csv(path, *_regularized_layout(traj.states.shape[1]),
               (traj.tau, traj.t, traj.states, traj.invariant))


def write_physical_csv(traj: Trajectory, path) -> None:
    """CSV schema: t,q1,q2,p1,p2,H, with H the trajectory's invariant
    column; a trajectory without one raises ParameterError."""
    dim = traj.states.shape[1]
    _write_csv(path, "t,q1,q2,p1,p2,H\n", "%.17g," * (1 + dim) + "%.17g\n",
               (traj.t, traj.states, traj.invariant))


def write_events_json(traj: Trajectory, path) -> None:
    payload = [
        {
            "index": e.index,
            "kind": e.kind,
            "tau": e.tau,
            "t": e.t,
            "state": list(e.state),
            **({"detail": e.detail} if e.detail else {}),
        }
        for e in traj.events
    ]
    write_json(payload, path)


def write_json(obj, path) -> None:
    """obj as JSON indented by 1, with LF line endings and one trailing
    newline, so that equal objects give byte-identical files."""
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
