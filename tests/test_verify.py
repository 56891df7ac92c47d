"""The invariant suite's own failure modes: a check whose errors are NaN, one
that draws no sample, and one whose draws are all refused must each fail,
never pass with a measured value of 0."""

import json
import math
import os
import signal
import sys

import numpy as np
import pytest

from collreg import analysis, integrators, physical, regularized, tables, verify
from collreg.cli import main
from collreg.errors import DomainError, ParameterError, StepFailure


class _Runaway(BaseException):
    """Ends a check that keeps redrawing; BaseException gets past its except."""


def _refusing(limit=10**4, exc=DomainError):
    """A stand-in that raises exc on every call, and _Runaway after limit calls."""
    calls = []

    def fn(*args, **kwargs):
        calls.append(args)
        if len(calls) > limit:
            raise _Runaway(f"{limit} calls")
        raise exc("refused")

    fn.calls = calls
    return fn


@pytest.mark.parametrize("module, name, check", [
    (physical, "infinitesimal_accel_3d", verify.check_axis_invariance),
    (physical, "infinitesimal_accel_3d", verify.check_general_equivalence),
    (regularized, "gamma", verify.check_collision_momentum),
    (regularized, "gamma", verify.check_defining_identity),
    (regularized, "gamma", verify.check_collision_regularity),
    (regularized, "regularized_field", verify.check_reflection_symmetry),
    (regularized, "regularized_field", verify.check_invariant_plane_field),
    (regularized, "reduced_field", verify.check_reduced_restriction),
])
def test_nan_error_fails_the_check(monkeypatch, module, name, check):
    orig = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: orig(*a, **k) * np.nan)
    rec = check()
    assert rec["passed"] is False
    assert math.isnan(rec["measured"])


def test_general_equivalence_sees_a_ring_pull_off_by_1e_10(monkeypatch):
    # the field is checked against the N-body sum, not against itself: a ring
    # pull scaled by 1 + 1e-10, mutual terms untouched, fails the check
    orig = physical.physical_field

    def skewed(y, params, ring):
        f = orig(y, params, ring)
        mutual = params.m * params.alpha * params.beta / (y[0] - y[1]) ** 2
        f[2] = (f[2] + mutual) * (1.0 + 1e-10) - mutual
        f[3] = (f[3] - mutual) * (1.0 + 1e-10) + mutual
        return f

    assert verify.check_general_equivalence()["passed"] is True
    monkeypatch.setattr(physical, "physical_field", skewed)
    rec = verify.check_general_equivalence()
    assert rec["passed"] is False
    assert 1e-13 < rec["measured"] < 1e-9


def test_check_with_no_samples_fails(monkeypatch):
    # every level-momentum draw refused: no chain-rule sample is taken
    monkeypatch.setattr(regularized, "reduced_level_momentum", _refusing())
    rec = verify.check_reduced_chain_rule()
    assert rec["passed"] is False
    assert rec["measured"] == math.inf
    assert rec["detail"] == "no samples"


def test_zero_set_stops_when_every_projection_is_refused(monkeypatch):
    refuse = _refusing()
    monkeypatch.setattr(regularized, "project_to_level", refuse)
    rec = verify.check_zero_set()
    assert len(refuse.calls) == 1000
    assert rec["passed"] is False
    assert rec["measured"] == math.inf
    assert rec["detail"] == "no samples; 0 of 100 states projected in 1000 draws"


def test_zero_set_with_too_few_projections_fails(monkeypatch):
    # all but every 20th draw refused: 50 states in the 1000 draws
    orig = regularized.project_to_level
    calls = []

    def sparse(*args):
        calls.append(args)
        if len(calls) % 20:
            raise DomainError("refused")
        return orig(*args)

    monkeypatch.setattr(regularized, "project_to_level", sparse)
    rec = verify.check_zero_set()
    assert len(calls) == 1000
    assert rec["passed"] is False
    assert rec["measured"] < rec["tolerance"]
    assert rec["detail"] == "50 of 100 states projected in 1000 draws"


@pytest.mark.parametrize("name, check", [
    ("project_to_level", verify.check_zero_set),
    ("reduced_level_momentum", verify.check_reduced_chain_rule),
])
def test_program_error_in_a_draw_is_not_redrawn(monkeypatch, name, check):
    # only DomainError is a refusal; any other exception is a bug to surface
    monkeypatch.setattr(regularized, name, _refusing(exc=ZeroDivisionError))
    with pytest.raises(ZeroDivisionError):
        check()


def test_record_reduces_errors():
    rec = verify._record([1e-3, 5e-4, 0.0], 1e-2)
    assert rec == {"passed": True, "measured": 1e-3, "tolerance": 1e-2}
    # a NaN anywhere wins the maximum and fails, whatever passed says
    rec = verify._record(np.array([[0.0, np.nan], [1.0, 0.0]]), 10.0, passed=True)
    assert rec["passed"] is False and math.isnan(rec["measured"])
    # no errors fail with an infinite measured value, and keep the detail
    rec = verify._record([], 1.0, passed=True, detail="why")
    assert rec == {"passed": False, "measured": math.inf, "tolerance": 1.0,
                   "detail": "no samples; why"}


def test_the_step_symplectic_starts_are_the_rngs_draws_bit_for_bit():
    rng = np.random.default_rng(verify.SEED + 17)
    draws = [rng.uniform(-2, 2, 2) for _ in range(50)]
    assert np.array_equal(np.array(tables.STEP_SYMPLECTIC_STARTS), np.array(draws))


# -- the long marches: streamed, and under the level guard -------------------

def test_the_long_marches_keep_no_trajectory():
    # kepler1d streams its march and keeps the column u (0.8 MB); the
    # gamma-conservation march keeps no sample.  Keeping them, as a march
    # without on_block does, peaks at 6.2 and 1.8 MiB
    import tracemalloc

    for run, limit in ((lambda: analysis.kepler1d_validation(-0.5, 1.0), 4 << 20),
                       (verify.check_gamma_conservation, 1 << 20)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


@pytest.mark.parametrize("problem, check", [("kepler1d", verify.check_kepler1d),
                                            ("reduced", verify.check_monotone_clocks)])
def test_a_march_that_leaves_its_level_fails_its_check_loudly(monkeypatch, problem, check):
    # P1' (v' on kepler1d) gains 0.01 P1, which raises Gamma at 0.01 P1^2 a
    # unit of tau: the level guard stops the march, where a march with no
    # invariant would go on to a report
    made = getattr(regularized.Problem, problem)

    def drifting(cls, *args):
        p = made(*args)

        def field(z):
            dz = p.field(z)
            return dz[0], dz[1] + 0.01 * z[1]

        return regularized.Problem(field, p.gamma, p.clock, p.project)

    monkeypatch.setattr(regularized.Problem, problem, classmethod(drifting))
    with pytest.raises(StepFailure, match="the run has left its level"):
        check()


# -- the helper process that runs the checks that do not march ---------------

@pytest.fixture(scope="module")
def serial_report():
    """The full report with every check run in this process."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrators, "_can_fork", lambda: False)
        return verify.run_checks()


@pytest.fixture
def helpers(monkeypatch) -> list:
    """The pids of the helper processes forked, in order."""
    pids = []
    init = integrators._Helper.__init__

    def init_and_count(self, serve):
        init(self, serve)
        pids.append(self.pid)  # None where _can_fork() refused

    monkeypatch.setattr(integrators._Helper, "__init__", init_and_count)
    return pids


def _replace_checks(monkeypatch, **replacements):
    """verify.CHECKS with the named checks replaced by make(original)."""
    monkeypatch.setattr(verify, "CHECKS", [
        (name, replacements[name](fn) if name in replacements else fn)
        for name, fn in verify.CHECKS])


def _dumped(report) -> str:
    return json.dumps(report, indent=1)


def test_the_report_is_the_same_with_and_without_the_helper(helpers, serial_report):
    report = verify.run_checks()
    assert len(helpers) == 1 and helpers[0] is not None
    assert _dumped(report) == _dumped(serial_report)
    assert report["all_passed"] and len(report["checks"]) == len(verify.CHECKS)
    # a filter that selects checks of one side only forks nothing
    for name_filter in ("config.", "integrators."):
        assert verify.run_checks(name_filter)["checks"] == [
            c for c in serial_report["checks"] if name_filter in c["name"]]
    assert len(helpers) == 1


def test_only_the_parent_side_checks_march(monkeypatch):
    # perfbench counts field evaluations in the benchmarked process only, so
    # a march in the helper would go uncounted
    marches = []
    modules = [m for n, m in sys.modules.items() if n == "collreg" or n.startswith("collreg.")]
    for name in ("integrate", "integrate_physical_oracle"):
        original = getattr(integrators, name)

        def counted(*args, _original=original, **kwargs):
            marches.append(1)
            return _original(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    for name, fn in verify.CHECKS:
        del marches[:]
        fn()
        assert bool(marches) == (name in verify.MARCHING), name
    assert verify.MARCHING <= {name for name, _ in verify.CHECKS}


def test_a_helper_side_check_that_raises_fails_the_command_as_before(
        monkeypatch, capsys, helpers):
    # a marching check further down the list raises too, and earlier in time
    parent = os.getpid()
    calls = []  # the calls made in this process

    def raising(message):
        def make(_):
            def check():
                if os.getpid() == parent:
                    calls.append(message)
                raise ParameterError(message)
            return check
        return make

    _replace_checks(monkeypatch, **{"regularized.zero_set": raising("the zero set broke"),
                                    "analysis.kepler1d": raising("kepler1d broke")})
    assert main(["verify"]) == 2
    assert len(helpers) == 1 and helpers[0] is not None
    assert calls == ["kepler1d broke", "the zero set broke"]
    out, err = capsys.readouterr()
    assert out == "" and err == "error: the zero set broke\n"
    monkeypatch.setattr(integrators, "_can_fork", lambda: False)
    assert main(["verify"]) == 2
    assert len(helpers) == 2 and helpers[1] is None and calls[2:] == ["the zero set broke"]
    assert capsys.readouterr() == (out, err)


def test_a_helper_killed_partway_still_yields_the_whole_report(monkeypatch, helpers,
                                                               serial_report):
    parent = os.getpid()
    here = []  # the helper-side checks run in this process

    def counted(name):
        def make(fn):
            def check():
                if os.getpid() == parent:
                    here.append(name)
                elif name == "regularized.collision_regularity":
                    os.kill(os.getpid(), signal.SIGKILL)
                return fn()
            return check
        return make

    aside = [name for name, _ in verify.CHECKS if name not in verify.MARCHING]
    _replace_checks(monkeypatch, **{name: counted(name) for name in aside})
    report = verify.run_checks()
    assert len(helpers) == 1 and helpers[0] is not None
    assert _dumped(report) == _dumped(serial_report)
    # the parent ran the killed check and those the helper never reached
    assert here == aside[aside.index("regularized.collision_regularity"):]


def test_an_interrupt_here_kills_and_reaps_the_helper(monkeypatch, helpers):
    # the helper would sleep for a minute; the interrupt ends the run at once
    import time

    parent = os.getpid()

    def stalled(fn):
        def check():
            if os.getpid() != parent:
                time.sleep(60)
            return fn()
        return check

    def interrupted(_):
        def check():
            raise _Runaway("interrupted")
        return check

    _replace_checks(monkeypatch, **{"symplectic.relative_map": stalled,
                                    "physical.energy_conservation": interrupted})
    t0 = time.monotonic()
    with pytest.raises(_Runaway):
        verify.run_checks()
    assert time.monotonic() - t0 < 30 and len(helpers) == 1 and helpers[0] is not None
    with pytest.raises(ProcessLookupError):  # killed and reaped: the pid is gone
        os.kill(helpers[0], 0)
