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
runs one fused loop per state size, 2-D or 4-D, and per field and clock, on
local floats: predictor, first sweep, convergence and finiteness tests,
event test, clock and recording, one packed row (tau, t, state) a sample.
Every loop is unrolled from one template, _MARCH, and compiled at its first
use.  The template's field and clock lines are slots: a Problem's own field
and clock, straight-line defs, are written out in them, so that a step of a
Problem's march calls neither, and any other callable, a wrapper around a
Problem's field too, is called there.  Later sweeps, the Newton fallback
and event localization are shared helpers the loop calls only when needed,
and they call the field; the invariant and its level guard run in numpy on
each block of recorded samples.
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
passed (integrate's on_block): a helper process forked at the first block
is sent every block's floats down a pipe and formats them as they come
while the march goes on, and when the march ends this process only waits
for the helper to format the last ones.  The march drops each block a block
after handing it over, so a simulation's memory does not grow with its
span.  A file written after the fact (write_regularized_csv without a
writer, write_physical_csv, the level set) hands the same writer all its
blocks at once, and this process formats them, as it does wherever no
helper may be forked, with the same bytes.
Every helper process of the package, the writer's and `collreg verify`'s,
is a _Helper.  Every field of every CSV is '%.17g' % v, formatted in numpy
(floatfmt) at about a third of the cost of %, so the helper formats each
block of the 1e5-step benchmark run as the march hands it over.

Adaptive Gragg-Bulirsch-Stoer extrapolation (Hairer, Norsett & Wanner,
Solving ODEs I, II.9; Deuflhard, Numer. Math. 41, 1983), written here on
plain floats, integrates the physical chart as an equivalence oracle, a
different method family in a different chart from the march it checks.  It
is valid only away from collisions and aborts at the proximity guard
PROXIMITY_GUARD, which is precisely the failure mode the regularized chart
removes; its terminal events are located by the Illinois method on the
length of the step in which they fire.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import inspect
import json
import linecache
import math
import os
import re
import stat
import struct
import sys
import textwrap
import threading
import types
import warnings
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import MassParams, RingConfig
from .errors import CollisionError, ParameterError, StepFailure
from .physical import hamiltonian, make_physical_rhs
from .regularized import Problem
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

# The midpoint solve's budget: sweeps after a march's own, then Newton iterations.
SWEEPS = 9
NEWTON_ITERATIONS = 40

# Separation q1 - q2 at which integrate_physical_oracle stops short of a collision.
PROXIMITY_GUARD = 1e-4

# integrate_physical_oracle's extrapolation: the modified midpoint rule's
# substep counts (Deuflhard's even sequence), the power of the step in the
# error estimate that sizes the next step, and the tolerances that estimate
# is held to.
GBS_SEQUENCE = (2, 4, 6, 8, 10, 12, 14, 16)
GBS_ORDER = 2 * len(GBS_SEQUENCE) - 1
ORACLE_RTOL, ORACLE_ATOL = 1e-12, 1e-14


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "implicit_midpoint"
    step: float = 1e-3
    newton_tol: float = 1e-13

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}; choose from {METHODS}")
        if not 0.0 < self.step < math.inf:
            raise ParameterError(f"step must be positive and finite, got {self.step}")
        if not 0.0 < self.newton_tol < math.inf:
            raise ParameterError(f"newton_tol must be positive and finite, got {self.newton_tol}")


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

    offset is the run's index of the first sample held: a run that streamed
    its blocks (integrate's on_block) holds only its last block, and len()
    is every sample the run recorded, offset + len(tau).  Event indices
    count from the run's first sample.
    """

    tau: np.ndarray
    t: np.ndarray
    states: np.ndarray
    invariant: Optional[np.ndarray] = None
    events: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    offset: int = 0

    def __len__(self):
        return self.offset + len(self.tau)

    def collision_events(self):
        return [e for e in self.events if e.kind == "collision"]


def _tuple_state(y) -> tuple:
    return tuple(float(v) for v in np.asarray(y, dtype=float).ravel())


def _solve(field, y, a, dstep, bound):
    """Sweeps 1 to SWEEPS of the midpoint solve for the step from y, starting
    from a, the iterate of the march's own first sweep (sweep 0), then the
    damped Newton solve from the last sweep's iterate.

    Each sweep is a <- y + dstep * field((y + a)/2), until the largest
    component change is within bound, the march's tol * (1 + max|y_k|).
    max() over the components keeps its first argument against a NaN, so the
    NaN test sees one only in the first component; integrate's finiteness
    test catches the others.
    """
    n = range(len(y))
    for _ in range(SWEEPS):
        f = field(tuple([0.5 * (y[k] + a[k]) for k in n]))
        c = tuple([y[k] + dstep * f[k] for k in n])
        delta = max([abs(c[k] - a[k]) for k in n])
        a = c
        if delta != delta:  # NaN contaminated the iteration
            raise _midpoint_nan()
        if delta <= bound:
            return a
    return _midpoint_newton(field, y, a, dstep, bound)


def _midpoint_nan() -> StepFailure:
    return StepFailure("non-finite value in the midpoint iteration", residual=float("nan"))


def _midpoint_newton(field, y, yn, dstep, bound):
    """Damped Newton fallback for steps too large for fixed-point contraction:
    at most NEWTON_ITERATIONS iterations from yn until the residual is within
    bound, each step halved up to 30 times until the residual drops.  A
    singular system, a damping underflow or an exhausted budget raises
    StepFailure with the residual of the last accepted iterate."""
    n = len(y)
    yv = np.array(y)
    x = np.array(yn)

    def residual(x):
        return x - yv - dstep * np.array(field(tuple(0.5 * (yv + x))))

    res = residual(x)
    rnorm = float(np.max(np.abs(res)))
    for _ in range(NEWTON_ITERATIONS):
        mid = 0.5 * (yv + x)
        jac = fd_jacobian(lambda w: field(tuple(w)), mid, step=1e-7)
        try:
            dx = np.linalg.solve(np.eye(n) - 0.5 * dstep * jac, -res)
        except np.linalg.LinAlgError as exc:
            raise StepFailure("singular Newton system in midpoint solve", residual=rnorm) from exc
        damping = 1.0
        for _ in range(30):
            x_try = x + damping * dx
            res_try = residual(x_try)
            rt = float(np.max(np.abs(res_try)))
            if rt < rnorm or rt <= bound:
                x, res, rnorm = x_try, res_try, rt
                break
            damping *= 0.5
        else:
            raise StepFailure("midpoint Newton damping underflow", residual=rnorm)
        if rnorm <= bound:
            return tuple(x)
    raise StepFailure(
        "implicit midpoint Newton fallback exhausted its iteration budget",
        residual=rnorm,
    )


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
    step's cubic Hermite interpolant; index is the run's index of the last
    sample before it."""
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
    and the step out of that 0 is none.  An event changes no state.  Its
    index is the run's index of the last sample before it: samples are
    recorded at steps 0, r, 2r, ... (r = record_every), so the march gives
    an event in step i the index (i - 1) // r; the last sample, recorded at
    the last or the stopping step whatever r says, comes after every event.
    invariant(columns), when given, is evaluated once on every recorded
    sample, a block of GUARD_BLOCK samples at a time: columns is the block's
    states as an (n, k) array, one row a component, and the invariant returns
    the k values (Problem.gamma takes both forms).  The values are the
    trajectory's invariant column and their largest magnitude is
    metadata["invariant_max"].  on_block(tau, t, states, values), when given
    (with an invariant), receives each block once the level guard has passed
    it: the block's clocks, states (k, n) and invariant values, ending at
    the sample a failed guard cuts the run at, so that its blocks add up to
    the run's samples.  It runs inside the march, which waits for it.  The
    samples it has been handed are dropped a block later, so a streamed
    march holds at most two blocks whatever its span, and the trajectory
    returned or raised holds the last block (see Trajectory.offset), with
    len() every sample recorded and metadata["invariant_max"] over them all.

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
    if not 0.0 <= span < math.inf:
        raise ParameterError(f"span must be nonnegative and finite, got {span}")
    if not span / cfg.step < math.inf:
        raise ParameterError(f"a span of {span} takes too many steps of {cfg.step} to count")
    if stop_after is not None and stop_after < 1:
        raise ParameterError(f"stop_after must be a positive count, got {stop_after}")
    if record_every < 1:
        raise ParameterError(f"record_every must be at least 1, got {record_every}")
    if on_block is not None and invariant is None:
        raise ParameterError("on_block takes the invariant's values, and no invariant was given")
    n = len(y)
    # the sizes of the regularized systems: 2 (reduced, kepler1d), 4 (sitnikov)
    if n not in _ROWS:
        sizes = " or ".join(f"{k}-D" for k in _ROWS)
        raise ParameterError(f"the implicit midpoint method takes {sizes} states, got {n}-D")
    n_steps = max(int(round(span / cfg.step)), 1) if span > 0.0 else 0
    dstep = span / n_steps if n_steps else 0.0

    # one packed row (tau, t, *state) a recorded sample, appended to one byte
    # table: 0.36 us a sample on a 2-D march, against 1.11 us for appends to
    # three buffers (2-vCPU Xeon VM, Python 3.11)
    width = _ROWS[n].size
    table = bytearray(_ROWS[n].pack(0.0, 0.0, *y))
    invs = None if invariant is None else array("d")
    events: list[Event] = []
    # the run's index of the table's first row, and the NaN-blind max
    # |invariant| so far
    offset, inv_max = 0, math.nan

    def settle():
        """The invariant on the samples recorded since the last call, and the
        level guard on them; returns the table's size in bytes at which the
        next call is due.  With on_block, the rows before the block it hands
        over leave the table and the invariant column; offset counts them,
        for the guard's cut and Trajectory.offset, and no event changes, as
        the march gives each its index in the run."""
        nonlocal offset, inv_max
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
            inv_max = float(np.fmax(inv_max, peak[len(kept) - 1]))
            if on_block is not None:
                rows = block[:len(kept)]
                on_block(rows[:, 0], rows[:, 1], rows[:, 2:], kept)
                # the block before this one leaves, and the table's rows,
                # k and hi among them, count from this block's first
                del table[:lo * width], invs[:lo]
                offset, k, hi, lo = offset + lo, k - lo, hi - lo, 0
            invs.frombytes(kept.tobytes())
            if k < hi:  # cut the run at sample k, as if the march had stopped there
                del table[(k + 1) * width:]
                events[:] = [e for e in events if e.index < offset + k]
                raise _off_level(float(peak[k - lo]), float(block[k - lo, 0]))
        return (hi + GUARD_BLOCK) * width

    march, consts = _march(n, field, time_scale)
    try:
        try:
            march(field, y, dstep, n_steps, cfg.newton_tol, time_scale, stop_after,
                  record_every, table, events, settle, consts)
        except StepFailure:
            settle()  # an off-level sample before the failure fails the run first
            raise
        settle()
    except StepFailure as exc:
        exc.trajectory = _bundle(table, n, invs, events, offset, inv_max)
        raise
    return _bundle(table, n, invs, events, offset, inv_max)


# The march is the hot loop of integrate: one function per state size and
# per field and clock, on local floats only, each unrolled from the one
# template _MARCH below.  A step calls nothing but the field and the clock,
# or nothing at all where both are written out in place (see the slots
# below), unless it needs a second sweep (_solve) or holds an event
# (_event), and a recorded sample calls settle only when it completes a block.
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
#
# The differences and the state are handed on one store at a time, oldest
# difference first: a multiple assignment of five names, or of the four
# components of a 4-D state, builds a tuple and unpacks it on every step.
# The only tuples a step builds are the states it passes to a called field,
# _solve and _event.
#
# The template has two slots, _FIELD_CALL (the two lines that evaluate the
# field, for the Euler guess and for the first sweep) and _CLOCK_CALL (the
# line that advances the clock).  A slot holds the call, as written, for any
# callable.  For a Problem's own field or clock, the straight-line def its
# constructor wrote (_straight_line), it holds that function's body written
# out in place instead: the argument's components are assigned to the
# names the body unpacks them into, the body's assignments follow, and its
# return value's components are assigned to f0, f1, ... (for the clock,
# added as dstep * (value) to t).  Every name of the body is prefixed with
# field_ or clock_, and its closure's values come in as the march's consts,
# unpacked into locals once a march.  The body's operations are the
# function's, in its order, on the same floats, so the march gives the
# bits, events and failures of the calling one; _solve, _midpoint_newton and
# _event, which only the rare steps that need them run, still call the
# field.  Only the Problem functions' own code objects (_INLINED) are
# written out, since only their bodies are known to be straight-line code
# with nothing to do but compute: any other callable, a wrapper around a
# Problem's field among them (a counter, a patched Problem, a tracer), is
# called, once an evaluation as always, so that what it does besides
# computing, such as counting, still happens.
#
# _build_march writes the template out for a state size in _ROWS and a
# field and clock, and compiles it at its first use (_march), as
# collections.namedtuple and dataclasses build their code.  In the template
# {n} is the state size, {consts} the constants' names, and a field
# {sep:form} is form once per component, joined by ", " (comma), " and "
# (and) or " + " (plus).  $ stands for the component: a line that still
# holds a $ after the fields are filled is written once per component.  The
# template has no comment, brace or $ of its own.
_MARCH = """\
def _march{n}(field, y, dstep, n_steps, tol, clock, stop_after, record_every, table,
              events, settle, consts):
    [{consts}] = consts
    {comma:y$} = y
    d0$ = d1$ = d2$ = d3$ = d4$ = 0.0
    t = 0.0
    pack, width = _ROWS[{n}].pack, _ROWS[{n}].size
    due = GUARD_BLOCK * width
    stopped = False
    for i in range(1, n_steps + 1):
        if i > 5:
            a$ = y$ + (5.0 * (d0$ - d3$) - 10.0 * (d1$ - d2$) + d4$)
        else:
            {comma:f$} = field(({comma:y$}))
            a$ = y$ + dstep * f$
        {comma:f$} = field(({comma:0.5 * (y$ + a$)}))
        c$ = y$ + dstep * f$
        if not ({and:-tol <= c$ - a$ <= tol}):
            bound = tol * (1.0 + max({comma:abs(y$)}))
            delta = max({comma:abs(c$ - a$)})
            if not delta <= bound:
                if delta != delta:
                    raise _midpoint_nan()
                {comma:c$} = _solve(field, ({comma:y$}), ({comma:c$}), dstep, bound)
            if {plus:(c$ - c$)} != 0.0:
                raise _non_finite(i, dstep)
        d4$ = d3$
        d3$ = d2$
        d2$ = d1$
        d1$ = d0$
        d0$ = c$ - y$

        if y0 * c0 < 0.0 or (c0 == 0.0 and y0 != 0.0):
            event, t = _event(field, ({comma:y$}), ({comma:c$}), dstep, i, t, clock,
                              (i - 1) // record_every)
            events.append(event)
            stopped = len(events) == stop_after
        elif clock is None:
            t = i * dstep
        else:
            t += dstep * clock(0.5 * (y0 + c0))
        y$ = c$

        if stopped or i % record_every == 0 or i == n_steps:
            table += pack(i * dstep, t, {comma:y$})
            if len(table) == due:
                due = settle()
            if stopped:
                break
"""

# The template's slots, each found by the call it holds: the field's
# argument, a state written with $, and the clock's, an expression for Q1.
_FIELD_CALL = re.compile(r"^( *)\{comma:f\$\} = field\(\(\{comma:(.*)\}\)\)\n", re.M)
_CLOCK_CALL = re.compile(r"^( *)t \+= dstep \* clock\((.*)\)\n", re.M)


# The code object of every Problem constructor's field and clock, to its
# name, Problem.<constructor>.<field or clock>: read at import, before
# anything may patch a constructor.
_INLINED = {code: f"Problem.{name}.{code.co_name}"
            for name in ("sitnikov", "reduced", "kepler1d")
            for code in getattr(Problem, name).__func__.__code__.co_consts
            if isinstance(code, types.CodeType) and code.co_name in ("field", "clock")}


@functools.lru_cache(maxsize=None)
def _straight_line(code):
    """The def of a Problem's field or clock, read from its source once a
    code object, as code a march writes out in place: (inputs, lines,
    outputs, consts), each a list of source text.  inputs are the names the
    first line unpacks the state into, or for a clock the argument itself;
    lines are the assignments that follow, outputs the components of the
    returned value, and consts the names of the closure's values, in
    code.co_freevars order.  Every name is prefixed with the def's own name
    and _, and must be an input, an assigned name or a closure's value.
    None where the source cannot be read, or no longer compiles to code (a
    file edited since its import)."""
    try:
        source = textwrap.dedent(inspect.getsource(code))
    except OSError:  # no source file: the march calls the function
        return None
    # the def compiled again, inside a function that holds its free names
    free = "".join(f"    {name} = None\n" for name in code.co_freevars)
    outer = compile(f"def outer():\n{free}{textwrap.indent(source, '    ')}",
                    code.co_filename, "exec").co_consts[0]
    if not any(c.co_code == code.co_code and c.co_consts == code.co_consts
               for c in outer.co_consts if isinstance(c, types.CodeType)):
        return None
    fn = ast.parse(source).body[0]
    (arg,), (*body, ret) = fn.args.args, fn.body
    inputs = [arg.arg]
    if (body and isinstance(body[0], ast.Assign) and isinstance(body[0].value, ast.Name)
            and body[0].value.id == arg.arg and isinstance(body[0].targets[0], ast.Tuple)):
        inputs = [name.id for name in body.pop(0).targets[0].elts]
    known = {*inputs, *code.co_freevars}
    for stmt in body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            raise TypeError(f"{_INLINED[code]} is not straight-line code: "
                            f"{ast.unparse(stmt)}")
        known.add(stmt.targets[0].id)
    prefix = f"{code.co_name}_"
    for node in ast.walk(ast.Module(body=[*body, ret], type_ignores=[])):
        if isinstance(node, ast.Name):
            if node.id not in known:
                raise TypeError(f"{_INLINED[code]} reads {node.id!r}, which is not its own")
            node.id = prefix + node.id
    value = ret.value
    outputs = value.elts if isinstance(value, ast.Tuple) else [value]
    return ([prefix + name for name in inputs], [ast.unparse(stmt) for stmt in body],
            [ast.unparse(e) for e in outputs], [prefix + name for name in code.co_freevars])


def _inlined(fn, size):
    """fn's code object if fn is a Problem's own field or clock that takes
    size inputs and can be written out in place, else None."""
    code = getattr(fn, "__code__", None)
    if code not in _INLINED:
        return None
    written = _straight_line(code)
    return code if written is not None and len(written[0]) == size else None


def _march(n, field, clock):
    """The march of integrate for n-D states with field and clock, built at
    its first use, and its consts: the closure values of the functions it
    writes out in place, in the order it unpacks them."""
    key = (n, _inlined(field, n), _inlined(clock, 1))
    march = _MARCHES.get(key)
    if march is None:
        march = _MARCHES[key] = _build_march(*key)
    consts = tuple(cell.cell_contents for fn, code in zip((field, clock), key[1:])
                   if code is not None for cell in fn.__closure__ or ())
    return march, consts


def _build_march(n: int, field=None, clock=None):
    """The template written out for n-D states, with the code objects field
    and clock (or None: called) written out in its slots, and compiled in
    this module's own globals, not a copy, so that the march looks up
    _solve, _event and the rest where a patch of this module puts them;
    under the file name <march{n}>, or <march{n} ...> naming the functions
    written out, with its source in linecache for tracebacks and debuggers."""
    joins = {"comma": ", ", "and": " and ", "plus": " + "}

    def join(m):
        return joins[m[1]].join(m[2].replace("$", str(k)) for k in range(n))

    # a slot written out: the argument's components, the body, and the
    # value's components taken as take says
    text, consts, label = _MARCH.replace("{n}", str(n)), [], ""
    for code, slot, take in ((field, _FIELD_CALL, "f{k} = {}"),
                             (clock, _CLOCK_CALL, "t += dstep * ({})")):
        if code is not None:
            inputs, body, outputs, names = _straight_line(code)
            text = slot.sub(lambda m: "".join(f"{m[1]}{line}\n" for line in [
                *(f"{name} = {m[2].replace('$', str(k))}" for k, name in enumerate(inputs)),
                *body, *(take.format(e, k=k) for k, e in enumerate(outputs))]), text)
            consts += names
            label += f" {_INLINED[code]}"
    lines = []
    for line in text.replace("{consts}", ", ".join(consts)).splitlines(keepends=True):
        line = re.sub(r"\{(\w+):([^}]*)\}", join, line)
        lines += [line.replace("$", str(k)) for k in range(n)] if "$" in line else [line]
    filename = f"<march{n}{label}>"
    linecache.cache[filename] = (sum(map(len, lines)), None, lines, filename)
    namespace = {}
    exec(compile("".join(lines), filename, "exec"), globals(), namespace)
    return namespace[f"_march{n}"]


# A recorded sample of a march on n-D states: one row (tau, t, *state) of
# native doubles in the sample table.
_ROWS = {n: struct.Struct(f"{2 + n}d") for n in (2, 4)}
# Every march built, by (n, field, clock): the code objects written out in
# its slots, or None where it calls.
_MARCHES: dict = {}


def _bundle(table, n, invs, events, offset, inv_max) -> Trajectory:
    """Wrap the sample table as arrays, uncopied: tau, t and states are views
    of its columns.  integrate bundles only when the march has returned or
    raised, so nothing appends after."""
    rows = np.frombuffer(table).reshape(-1, 2 + n)
    return Trajectory(
        tau=rows[:, 0],
        t=rows[:, 1],
        states=rows[:, 2:],
        invariant=None if invs is None else np.frombuffer(invs),
        events=events,
        metadata={} if invs is None else {"invariant_max": inv_max},
        offset=offset,
    )


def _gbs_step(rhs, y, f0, step):
    """One Gragg-Bulirsch-Stoer step of length step from y, where f0 = rhs(y).
    Gragg's modified midpoint rule crosses the step in each substep count n of
    GBS_SEQUENCE, sharing f0; its error expands in even powers of step / n, so
    a Richardson tableau in (step / n)^2 extrapolates the results to n -> oo.
    Both run on the increment z - y, which rounds at its own small size and
    not at y's, and y is added once at the end.  Returns the new state and
    the difference of the tableau's last two entries, the error estimate of
    the lower order one."""
    row = []
    for j, n in enumerate(GBS_SEQUENCE):
        h = step / n
        h2 = 2.0 * h
        d0, d1 = (0.0,) * len(y), tuple(h * b for b in f0)
        for _ in range(n - 1):
            f = rhs(tuple(a + b for a, b in zip(y, d1)))
            d0, d1 = d1, tuple(a + h2 * b for a, b in zip(d0, f))
        new = [d1]
        for k in range(j):
            c = (n / GBS_SEQUENCE[j - k - 1]) ** 2 - 1.0
            new.append(tuple(a + (a - b) / c for a, b in zip(new[k], row[k])))
        row = new
    return (tuple(a + b for a, b in zip(y, row[-1])),
            tuple(a - b for a, b in zip(row[-1], row[-2])))


def _illinois(trial, g, glo, hi, y_hi, t):
    """The step length s in (0, hi] at which a terminal event function g first
    reaches 0 along trial(s), the state one step of length s from the step's
    start, given glo = g(trial(0)) < 0 <= g(y_hi) with y_hi = trial(hi).  The
    bracket is narrowed by the Illinois method, regula falsi that halves the
    value kept at an end the last two trials left in place, until its width
    is 4 ulps of the clock t + hi.  Returns the end where g >= 0 and its state,
    so the event state lies on the far side of the event."""
    lo, ghi, kept = 0.0, g(y_hi), 0
    while hi - lo > 4.0 * sys.float_info.epsilon * (t + hi):
        s = lo + (hi - lo) * (glo / (glo - ghi))
        if not lo < s < hi:
            break
        ys = trial(s)
        gs = g(ys)
        if gs >= 0.0:
            hi, ghi, y_hi = s, gs, ys
            if kept == 1:
                glo *= 0.5
            kept = 1
        else:
            lo, glo = s, gs
            if kept == -1:
                ghi *= 0.5
            kept = -1
    return hi, y_hi


def integrate_physical_oracle(
    y0,
    t_span: float,
    params: MassParams,
    ring: RingConfig,
    *,
    stop_at_q: Optional[float] = None,
) -> Trajectory:
    """Reference adaptive integration in the physical chart.

    Terminates with a proximity event when the separation q1 - q2 drops to
    PROXIMITY_GUARD (the chart is singular at q1 = q2; near-collision work
    belongs to the regularized chart).  Optionally terminates with an escape
    event when either secondary reaches stop_at_q from the ring plane,
    q1 >= stop_at_q or q2 <= -stop_at_q; the event's detail is "body 2" when
    q2 crossed.  A start already there, max(q1, -q2) >= stop_at_q, would never
    cross and is refused.  Both clocks coincide in this chart.
    The invariant column is H at each sample, one sample a step.  Each step is
    one Gragg-Bulirsch-Stoer extrapolation (_gbs_step), accepted when its
    error estimate is within ORACLE_RTOL of the state plus ORACLE_ATOL in the
    root mean square; a step in which an event fires is cut back to the event
    by _illinois, one extrapolation from the step's start a trial.
    """
    y = _tuple_state(y0)
    if not 0.0 <= t_span < math.inf:
        raise ParameterError(f"span must be nonnegative and finite, got {t_span}")
    if not y[0] - y[1] > PROXIMITY_GUARD:
        raise CollisionError(
            f"initial separation {y[0] - y[1]} is already inside the guard {PROXIMITY_GUARD}"
        )
    if stop_at_q is not None and not max(y[0], -y[1]) < stop_at_q:
        raise ParameterError(f"the start already lies at stop_at_q={stop_at_q} or beyond: "
                             f"max(q1, -q2) = {max(y[0], -y[1])}")
    # each terminal event as a function below 0 until it fires
    watch = [("collision", lambda v: PROXIMITY_GUARD - (v[0] - v[1]))]
    if stop_at_q is not None:
        watch.append(("escape_threshold", lambda v: max(v[0], -v[1]) - stop_at_q))

    def norm(d, v, w):
        """Root mean square of d, each component over the tolerance at v and w."""
        return math.sqrt(sum((c / (ORACLE_ATOL + ORACLE_RTOL * max(abs(a), abs(b)))) ** 2
                             for a, b, c in zip(v, w, d)) / len(d))

    def factor(err):
        """The factor on the step that the error estimate err asks for, with
        the safety factors of Hairer and Wanner's ODEX."""
        return 0.94 * (0.65 / err) ** (1.0 / GBS_ORDER)

    rhs = make_physical_rhs(params, ring)
    f = rhs(y)
    t, times, states, hit = 0.0, [0.0], [y], None
    # the first step is the start's time scale, |y| / |f| in that norm; cap is
    # the most a step may grow on the one before, 1 after a rejected step
    step, cap = norm(y, y, y) / norm(f, y, y), 4.0
    while t < t_span:
        last = step >= t_span - t
        if last:
            step = t_span - t
        y1, diff = _gbs_step(rhs, y, f, step)
        err = norm(diff, y, y1)
        if not err <= 1.0:  # NaN too, from a stage gone non-finite
            step *= 0.02 if math.isnan(err) else max(0.02, factor(err))
            cap = 1.0
            if t + step == t:
                raise StepFailure(f"physical oracle failed: its step fell below "
                                  f"the spacing of floats at t={t}")
            continue
        for kind, g in watch:
            if g(y1) >= 0.0:
                s, ye = _illinois(lambda s: _gbs_step(rhs, y, f, s)[0], g, g(y), step, y1, t)
                if hit is None or s < hit[0]:
                    hit = (s, ye, kind)
        if hit is not None:
            step, y1, kind = hit
        t = t_span if last and hit is None else t + step
        times.append(t)
        states.append(y1)
        if last or hit is not None:
            break
        y, f = y1, rhs(y1)
        step *= min(cap, factor(err)) if err > 0.0 else cap
        cap = 4.0
    events = []
    if hit is not None:
        detail = "proximity_abort" if kind == "collision" else (
            "body 2" if -y1[1] > y1[0] else None)
        events.append(Event(index=len(times) - 1, kind=kind, tau=t, t=t, state=y1,
                            detail=detail))
    energy = np.array([hamiltonian(s, params, ring) for s in states])
    times = np.array(times)
    return Trajectory(
        tau=times,
        t=times,
        states=np.array(states),
        invariant=energy,
        events=events,
        metadata={"energy_drift": float(abs(energy[-1] - energy[0]))},
    )


class _CsvWriter:
    """One CSV file: its header, then every row of the blocks handed to
    write, in order, each float as '%.17g' % v (_format).  A block is given
    as columns of equal length, each of one or more values a row; zeros are
    the places, counted in those values, before which a field 0 is put in
    every row.  finish(rows) completes the file once all rows, as many as it
    is told, have come.

    rows is the number of rows a march is to hand over while it runs; from
    two blocks of GUARD_BLOCK rows on, a helper (_Helper) is forked at the
    first write where one may be, so that a run refused before its first
    block forks none.  write then sends each block's floats down a pipe of
    1 MiB where the system allows it, about four blocks of the regularized
    CSV, and the helper formats them into the file while this process goes
    on; write waits only on a helper that far behind, and finish waits for
    it to format the last rows.  Without a helper, write formats each block
    itself.  The bytes are the same either way.  Closing a writer that was
    not finished stops its helper and removes its file, so that only a
    finished CSV is left at path.
    """

    def __init__(self, path, header, rows, zeros=()):
        self._fh = open(path, "wb")
        self.path = path
        self._zeros = zeros
        self._fork_at_write = rows >= 2 * GUARD_BLOCK
        self._rows = self._width = 0
        self._finished = False
        self._helper = self._outbox = None
        try:
            self._fh.write(header.encode())
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _fork(self):
        inbox, self._outbox = os.pipe()
        self._fh.flush()  # the helper inherits no buffered bytes
        try:
            helper = _Helper(lambda: self._serve(inbox))
        finally:
            os.close(inbox)
        if helper.pid is None:  # no helper may be forked: write formats every block
            os.close(self._outbox)
            self._outbox = None
            return
        self._helper = helper
        with contextlib.suppress(AttributeError, OSError):
            import fcntl  # present wherever os.fork is; F_SETPIPE_SZ is Linux's

            fcntl.fcntl(self._outbox, fcntl.F_SETPIPE_SZ, 1 << 20)

    def _serve(self, inbox):
        """The helper's loop: format the rows that come down the pipe's read
        end inbox into the file, GUARD_BLOCK at a time, until it closes."""
        os.close(self._outbox)
        with open(inbox, "rb") as floats, open(self._fh.fileno(), "wb", closefd=False) as fh:
            while block := floats.read(GUARD_BLOCK * self._width * 8):
                fh.writelines(_format(np.frombuffer(block).reshape(-1, self._width)))

    def write(self, *columns):
        values = np.column_stack(columns)
        if self._zeros:
            values = np.insert(values, self._zeros, 0.0, axis=1)
        self._rows += len(values)
        if self._fork_at_write:
            self._fork_at_write = False
            self._width = values.shape[1]
            self._fork()
        if self._helper is None:
            self._fh.writelines(_format(values))
            return
        unsent = memoryview(values).cast("B")
        try:
            while unsent:  # a signal may cut a write short
                unsent = unsent[os.write(self._outbox, unsent):]
        except BrokenPipeError:  # the helper leaves before its pipe closes only by failing
            self._join()
            raise

    def finish(self, rows):
        if rows != self._rows:
            raise ValueError(f"a CSV of {rows} rows was handed {self._rows}")
        if self._helper is not None:
            os.close(self._outbox)
            self._outbox = None
            self._join()
        self._finished = True
        self.close()

    def _join(self):
        code = self._helper.join()
        if code:
            raise OSError(f"the CSV writer's helper process exited with code {code}; "
                          f"{self.path} is not written")

    def close(self):
        """Stop the helper if it still runs, and close the files; remove the
        CSV of a writer that was not finished."""
        if self._helper is not None:
            self._helper.close()
        if self._outbox is not None:
            os.close(self._outbox)
            self._outbox = None
        if not (self._finished or self._fh.closed):
            # only the regular file this writer made, not a device or a file
            # put at path since
            made = os.fstat(self._fh.fileno())
            with contextlib.suppress(OSError):
                if stat.S_ISREG(made.st_mode) and os.path.samestat(made, os.stat(self.path)):
                    os.unlink(self.path)
        self._fh.close()


def _format(values):
    """The rows of values, an (n, m) float array, as CSV text in pieces
    (floatfmt.format_rows).  Its module is imported at the first call, so a
    run that writes no CSV does not compile it."""
    from .floatfmt import format_rows

    return format_rows(values)


def _can_fork() -> bool:
    """Whether a helper process may be forked: fork exists, no other Python
    thread runs that could hold a lock the helper needs, and this process is
    not a daemonic multiprocessing worker, which may have no children (a
    process that never imported multiprocessing is none)."""
    mp = sys.modules.get("multiprocessing")
    return (hasattr(os, "fork") and threading.active_count() == 1
            and not (mp is not None and mp.current_process().daemon))


class _Helper:
    """A process forked to call serve() beside this one where _can_fork()
    allows; elsewhere pid is None and nothing is forked.  The package forks,
    kills and reaps processes only here.  The helper leaves by os._exit,
    with code 0 if serve returned and 1 if it raised, so it runs no atexit
    handler and flushes no inherited stdio buffer.  join() reaps it and
    returns its exit code; close(), or leaving a with-block, kills and reaps
    it if it has not been joined."""

    def __init__(self, serve):
        self.pid = None
        if _can_fork():
            with warnings.catch_warnings():
                # Python 3.12 warns about forking beside native threads (numpy's
                # BLAS pool); a helper touches no lock of theirs
                warnings.simplefilter("ignore", DeprecationWarning)
                self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                serve()
                code = 0
            finally:
                os._exit(code)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def join(self) -> int:
        pid, self.pid = self.pid, None
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def close(self):
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            self.join()


def _write_csv(path, header, columns, zeros=()) -> None:
    """Write header, then row k of every column, with the 0 fields of zeros
    (see _CsvWriter), for every sample k.  A column is an array of one or
    more values a sample; in a trajectory the last is the invariant, which
    may be missing (None) and is then refused.  The writer is handed every
    block at once, with no march to overlap, and is told of no rows to come:
    it forks no helper and formats every block in this process."""
    if columns[-1] is None:
        raise ParameterError("the trajectory carries no invariant column to write")
    rows = len(columns[0])
    with _CsvWriter(path, header, 0, zeros) as csv:
        for a in range(0, rows, GUARD_BLOCK):
            csv.write(*(c[a:a + GUARD_BLOCK] for c in columns))
        csv.finish(rows)


def _regularized_layout(dim):
    # a reduced state (Q1, P1) is written as (Q1, 0, P1, 0): a 0 field
    # before P1 and one before gamma, in a row (tau, t, Q1, P1, gamma)
    return "tau,t,Q1,Q2,P1,P2,gamma\n", (3, 4) if dim == 2 else ()


def open_regularized_csv(path, dim, samples) -> _CsvWriter:
    """The regularized CSV at path, opened for a run of dim-D states that is
    to record about samples samples: integrate(..., on_block=csv.write)
    feeds it each block of samples as the level guard passes it, and
    write_regularized_csv(traj, path, csv) finishes it.  The first block
    forks the helper that formats every block while the march goes on, when
    samples are enough to pay for it (see _CsvWriter); finishing then waits
    only for the helper's last block."""
    header, zeros = _regularized_layout(dim)
    return _CsvWriter(path, header, samples, zeros)


def write_regularized_csv(traj: Trajectory, path, csv=None) -> None:
    """CSV schema: tau,t,Q1,Q2,P1,P2,gamma (reduced runs carry Q2 = P2 = 0).

    17 significant digits, '.' decimal separator, LF line endings: identical
    configs must produce byte-identical files.  The gamma column is the
    trajectory's invariant; a trajectory without one raises ParameterError.
    csv, when given, is the writer open_regularized_csv opened on path, and
    has been handed every sample of traj; this finishes it, and writes no
    rows of its own.  Without it, a trajectory that holds fewer samples than
    it recorded (a streamed run's) raises ParameterError.
    """
    if csv is not None:
        if os.fspath(path) != os.fspath(csv.path):
            raise ValueError(f"the CSV writer of {csv.path} was given to write {path}")
        csv.finish(len(traj))
        return
    if traj.offset:
        raise ParameterError(f"the trajectory holds {len(traj.tau)} of the {len(traj)} "
                             f"samples it recorded; its CSV was written as it ran")
    header, zeros = _regularized_layout(traj.states.shape[1])
    _write_csv(path, header, (traj.tau, traj.t, traj.states, traj.invariant), zeros)


def write_physical_csv(traj: Trajectory, path) -> None:
    """CSV schema: t,q1,q2,p1,p2,H, with H the trajectory's invariant
    column; a trajectory without one raises ParameterError."""
    _write_csv(path, "t,q1,q2,p1,p2,H\n", (traj.t, traj.states, traj.invariant))


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
