"""The invariant suite's own failure modes: a check whose errors are NaN, one
that draws no sample, and one whose draws are all refused must each fail,
never pass with a measured value of 0."""

import math

import numpy as np
import pytest

from collreg import physical, regularized, verify
from collreg.errors import DomainError


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
