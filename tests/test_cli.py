import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from collreg import analysis, cli, config, integrators, regularized, verify
from collreg.cli import build_parser, load_run_config, main
from collreg.errors import ParameterError, SchemaError, StepFailure
from collreg.integrators import IntegratorConfig, integrate_physical_oracle
from collreg.regularized import gamma_reduced
from collreg.config import MassParams, RingConfig, ring_radius


def write_config(path, **overrides):
    """A reduced run, with overrides; a kepler1d one has mu_grav 1 in place of
    the ring's N, m and epsilon, which it does not read."""
    cfg = {
        "schema": 1,
        "problem": "reduced",
        "N": 2,
        "m": 1e-3,
        "epsilon": 0.0,
        "h": -1.0,
        "initial": {"chart": "regularized", "state": [0.0, 1.0]},
        "integrator": {"method": "implicit_midpoint", "step": 1e-3},
        "span": 20.0,
    }
    if overrides.get("problem") == "kepler1d":
        cfg = {k: v for k, v in cfg.items() if k not in ("N", "m", "epsilon")} | {"mu_grav": 1.0}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def test_classify_command(capsys):
    assert main(["classify", "--h", "-0.5"]) == 0
    assert capsys.readouterr().out.strip() == "Periodic"
    assert main(["classify", "--h", "0.25"]) == 0
    assert capsys.readouterr().out.strip() == "Hyperbolic"
    assert main(["classify", "--h", "0"]) == 0
    assert capsys.readouterr().out.strip() == "Parabolic"


def test_simulate_reduced_run(tmp_path, capsys):
    cfgp = tmp_path / "run.json"
    outs = {
        "trajectory": str(tmp_path / "t.csv"),
        "events": str(tmp_path / "e.json"),
        "summary": str(tmp_path / "s.json"),
    }
    write_config(cfgp, outputs=outs, span=20.0)
    assert main(["simulate", str(cfgp)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["collisions"] >= 1
    events = json.loads((tmp_path / "e.json").read_text())
    assert any(e["kind"] == "collision" for e in events)
    # a bounded orbit's event momentum sits at the collision value
    pc = math.sqrt(2e-3)
    for e in events:
        assert abs(abs(e["state"][1]) - pc) < 1e-6
    header = (tmp_path / "t.csv").read_text().splitlines()[0]
    assert header == "tau,t,Q1,Q2,P1,P2,gamma"
    assert summary["final_invariant_error"] < 1e-5


def test_simulate_determinism(tmp_path, capsys):
    cfg1 = tmp_path / "r1.json"
    cfg2 = tmp_path / "r2.json"
    write_config(cfg1, outputs={"trajectory": str(tmp_path / "t1.csv"),
                                "events": str(tmp_path / "e1.json"),
                                "summary": str(tmp_path / "s1.json")}, span=5.0)
    write_config(cfg2, outputs={"trajectory": str(tmp_path / "t2.csv"),
                                "events": str(tmp_path / "e2.json"),
                                "summary": str(tmp_path / "s2.json")}, span=5.0)
    assert main(["simulate", str(cfg1)]) == 0
    assert main(["simulate", str(cfg2)]) == 0
    capsys.readouterr()
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
    assert (tmp_path / "e1.json").read_bytes() == (tmp_path / "e2.json").read_bytes()
    # 17 significant digits in the data rows
    row = (tmp_path / "t1.csv").read_text().splitlines()[2]
    assert "0.044721" in row


def test_simulate_physical_collision_orbit(tmp_path, capsys):
    from collreg.analysis import momentum_profile

    r = ring_radius(2)
    q0 = 1.0
    p0 = momentum_profile(q0, -1.0, 1e-3, r)
    cfgp = tmp_path / "phys.json"
    write_config(
        cfgp,
        problem="sitnikov",
        initial={"chart": "physical", "state": [q0, -q0, -p0, p0]},
        span=100.0,
        outputs={"trajectory": str(tmp_path / "t.csv"),
                 "events": str(tmp_path / "e.json"),
                 "summary": str(tmp_path / "s.json")},
    )
    assert main(["simulate", str(cfgp)]) == 0
    capsys.readouterr()
    events = json.loads((tmp_path / "e.json").read_text())
    assert any(e.get("detail") == "proximity_abort" for e in events)
    header = (tmp_path / "t.csv").read_text().splitlines()[0]
    assert header == "t,q1,q2,p1,p2,H"


def test_simulate_hyperbolic_terminal_speed(tmp_path, capsys):
    from collreg.analysis import momentum_profile

    r = ring_radius(2)
    p0 = momentum_profile(1.0, 0.25, 1e-3, r)
    cfgp = tmp_path / "hyp.json"
    write_config(
        cfgp,
        problem="sitnikov",
        h=0.25,
        initial={"chart": "physical", "state": [1.0, -1.0, p0, -p0]},
        span=1e6,
        stop_at_q=1e3,
        outputs={"trajectory": str(tmp_path / "t.csv"),
                 "events": str(tmp_path / "e.json"),
                 "summary": str(tmp_path / "s.json")},
    )
    assert main(["simulate", str(cfgp)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "s.json").read_text())
    assert abs(summary["terminal_speed"] - 0.5) / 0.5 < 5e-3
    events = json.loads((tmp_path / "e.json").read_text())
    assert any(e["kind"] == "escape_threshold" for e in events)


def _escape_run(tmp_path, state):
    """A physical run at epsilon = 0.3 from state, at its own level, to
    stop_at_q 1e3; returns its summary and events."""
    outs = {k: str(tmp_path / k) for k in ("trajectory", "events", "summary")}
    cfgp = tmp_path / "esc.json"
    cfgp.write_text(json.dumps({
        "schema": 1, "problem": "sitnikov", "N": 2, "m": 1e-3, "epsilon": 0.3,
        "initial": {"chart": "physical", "state": state},
        "span": 1e6, "stop_at_q": 1e3, "outputs": outs}))
    assert main(["simulate", str(cfgp)]) == 0
    return (json.loads((tmp_path / "summary").read_text()),
            json.loads((tmp_path / "events").read_text()))


def test_simulate_terminal_speed_is_dq1_dt_at_unequal_masses(tmp_path, capsys):
    # at epsilon = 0.3 the first secondary's velocity is p1 / (1 + epsilon);
    # it escapes from this start while the second stays near q2 = -1.8
    summary, events = _escape_run(tmp_path, [1.0, -1.0, 2.0, -0.8])
    capsys.readouterr()
    assert [e["kind"] for e in summary["events"]] == ["escape_threshold"]
    assert "detail" not in events[0] and abs(events[0]["state"][0] - 1e3) < 1e-9
    assert summary["terminal_speed"] == summary["final_state"][2] / 1.3
    # the first secondary keeps its own energy p1^2/2.6 - 1.3/sqrt(q1^2 + r^2)
    # but for the mutual term (m = 1e-3), so at q1 = 1e3 its speed is
    energy = 2.0 ** 2 / 2.6 - 1.3 / math.sqrt(1.0 + 0.25)
    speed = math.sqrt(2.0 * (energy + 1.3 / math.sqrt(1e6 + 0.25)) / 1.3)
    assert abs(summary["terminal_speed"] - speed) / speed < 2e-3


@pytest.mark.parametrize("p1, p2, t_end", [
    # the second secondary reaches q2 = -1e3 at t ~ 595, the first would at t ~ 1301
    (2.0, -1.5, 595.41),
    # the epsilon = 0 escape's momentum: at epsilon = 0.3 the first secondary's
    # own energy is negative, so only the second escapes
    (1.4280596563168613, -1.4280596563168613, 646.88),
])
def test_simulate_terminal_speed_is_dq2_dt_when_the_second_secondary_escapes(
        tmp_path, capsys, p1, p2, t_end):
    summary, events = _escape_run(tmp_path, [1.0, -1.0, p1, p2])
    capsys.readouterr()
    assert [(e["kind"], e.get("detail")) for e in events] == [("escape_threshold", "body 2")]
    assert abs(events[0]["state"][1] + 1e3) < 1e-9
    assert abs(summary["t_end"] - t_end) < 0.01
    # the second secondary's velocity is p2 / (1 - epsilon), and it keeps its
    # own energy p2^2/1.4 - 0.7/sqrt(q2^2 + r^2) but for the mutual term
    assert summary["terminal_speed"] == summary["final_state"][3] / 0.7
    energy = p2 ** 2 / 1.4 - 0.7 / math.sqrt(1.0 + 0.25)
    speed = -math.sqrt(2.0 * (energy + 0.7 / math.sqrt(1e6 + 0.25)) / 0.7)
    assert abs(summary["terminal_speed"] - speed) / -speed < 2e-3


def test_simulate_reports_no_terminal_speed_without_an_escape(tmp_path, capsys):
    # from this start the run ends at the proximity guard, not at stop_at_q,
    # so it has no terminal speed to report
    summary, events = _escape_run(tmp_path, [1.0, -1.0, 1.0, -0.8])
    capsys.readouterr()
    assert [(e["kind"], e.get("detail")) for e in events] == [("collision", "proximity_abort")]
    assert abs(summary["t_end"] - 17.13) < 0.01
    assert "terminal_speed" not in summary
    assert {"energy_drift", "initial_energy_mismatch"} <= summary.keys()


def test_simulate_physical_summary_reports_the_largest_energy_error(tmp_path, capsys):
    # the oracle's invariant column is H, and the level is the config's h:
    # this start lies 1.1956 off h = 0.25, which the summary must not hide
    cfgp = tmp_path / "phys.json"
    write_config(
        cfgp,
        problem="sitnikov", epsilon=0.2, h=0.25, stop_at_q=20.0, span=50.0,
        initial={"chart": "physical", "state": [1.0, -1.0, 0.9, -0.9]},
        outputs={"trajectory": str(tmp_path / "t.csv"),
                 "events": str(tmp_path / "e.json"),
                 "summary": str(tmp_path / "s.json")},
    )
    assert main(["simulate", str(cfgp)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "s.json").read_text())
    energies = [float(row.split(",")[-1])
                for row in (tmp_path / "t.csv").read_text().splitlines()[1:]]
    assert summary["max_invariant_error"] == max(abs(e - 0.25) for e in energies)
    assert summary["max_invariant_error"] >= summary["final_invariant_error"] > 1.19


def test_simulate_kepler1d(tmp_path, capsys):
    cfgp = tmp_path / "kep.json"
    cfg = {
        "schema": 1,
        "problem": "kepler1d",
        "h": -0.5,
        "mu_grav": 1.0,
        "initial": {"chart": "regularized", "state": [0.0, 1.0]},
        "integrator": {"method": "implicit_midpoint", "step": 1e-3},
        "span": 30.0,
        "outputs": {"trajectory": str(tmp_path / "t.csv"),
                    "events": str(tmp_path / "e.json"),
                    "summary": str(tmp_path / "s.json")},
    }
    cfgp.write_text(json.dumps(cfg))
    assert main(["simulate", str(cfgp)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "s.json").read_text())
    # the collision-transit speed of the regularized 1D problem is 2 sqrt(mu)
    assert summary["collisions"] >= 4
    assert summary["final_invariant_error"] < 1e-12


def test_simulate_escape_off_level_fails_with_partial_outputs(tmp_path, capsys):
    # with a fixed tau step this escape drifts O(1e3) off its energy level;
    # the run must fail and keep what it integrated
    cfgp = tmp_path / "esc.json"
    write_config(
        cfgp,
        problem="sitnikov", N=3, epsilon=0.3,
        initial={"chart": "regularized", "state": [0.0, 0.1, 1.0, 0.0]},
        integrator={"method": "implicit_midpoint", "step": 5e-4},
        span=20.0,
        outputs={"trajectory": str(tmp_path / "t.csv"),
                 "events": str(tmp_path / "e.json"),
                 "summary": str(tmp_path / "s.json")},
    )
    assert main(["simulate", str(cfgp)]) == 3
    assert capsys.readouterr().err == (
        "integration failed: |invariant| reached 1.005e-03 at tau=6.0495, past the limit "
        "0.001: the run has left its level (residual 1.005e-03)\n")
    assert not (tmp_path / "s.json").exists()
    assert isinstance(json.loads((tmp_path / "e.json").read_text()), list)
    # the bytes the march wrote when it checked the level at every sample: the
    # guard trips at sample 12100, inside the third block of integrate's level
    # checks and past the CSV writer's split, so the block guard and the split
    # writer must both leave the failure where it was
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("t.csv", "e.json")]
    assert digests == ["a5149c0107f67f20645bee4314b39f444df3e4862a4fd7ff95cf091caeaf0f89",
                       "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"]
    rows = (tmp_path / "t.csv").read_text().splitlines()
    assert rows[0] == "tau,t,Q1,Q2,P1,P2,gamma"
    last = [float(v) for v in rows[-1].split(",")]
    assert 5.0 < last[0] < 7.0 and abs(last[-1]) > 1e-3
    assert max(abs(float(r.split(",")[-1])) for r in rows[1:-1]) <= 1e-3


# sha256 of the trajectory CSV, the events JSON and the summary JSON without
# its wall_time_s line, for a ~2000-step run of each regularized problem
PINNED_RUNS = {
    "reduced": (
        {"problem": "reduced", "N": 2, "m": 1e-3, "epsilon": 0.0, "h": -1.0,
         "initial": {"chart": "regularized", "state": [0.5, -1.0]},
         "integrator": {"method": "implicit_midpoint", "step": 5e-3}, "span": 10.0},
        ("3fa6b1193f000b66dcdbef7e8bf361f18cc2b58e455edd55a9a8ad7b2848df48",
         "1cda6d1ff52b5a6a44e74903a6cd85cd05b9cece299a04c61db0b0e9b42387b8",
         "ecba144fbdaec622dc7427379db3888d8cf3ac117c7326d49075a94a62ae4211"),
    ),
    "sitnikov": (
        {"problem": "sitnikov", "N": 2, "m": 1e-3, "epsilon": 0.3, "h": -2.5,
         "initial": {"chart": "regularized", "state": [0.5, 0.1, -1.0, 0.0]},
         "integrator": {"method": "implicit_midpoint", "step": 5e-3}, "span": 10.0},
        ("b02e29a27c63d8de317058b7084d12edb7510367143430801a838a2ee2185bd6",
         "d16f6b60c87bd29e7246d0d192b4b804c898bb038065f5cc80c2e19d51026670",
         "412c5eff2d4a16412410ffb8e9da81ef7bcd807ed939c2db8fe4e1ad7db38b58"),
    ),
    "kepler1d": (
        {"problem": "kepler1d", "h": -0.5, "mu_grav": 1.0,
         "initial": {"chart": "regularized", "state": [0.0, 1.0]},
         "integrator": {"method": "implicit_midpoint", "step": 4e-3}, "span": 8.0},
        # its gamma squares are products, as numpy's columns are: 2 of the
        # 2001 gamma values moved by 2.2e-16 from the libm pow ones
        ("c016c34be3eccd7a9fe2ffe0690d6f94cbcbfc4409802f991aeb5b31ce5216cc",
         "6b5d001316c0e74633000155d426e736af235827318ef5bef0f22530294f6b59",
         "5fe08630978c2209e9259d96a3dce393686003b5d8124ce78c9020d415f348f8"),
    ),
}


@pytest.mark.parametrize("problem", sorted(PINNED_RUNS))
def test_simulate_outputs_are_pinned(tmp_path, capsys, problem):
    # a rewiring of the problems must leave every output byte where it was;
    # each run projects its start and passes through at least one collision
    cfg, pinned = PINNED_RUNS[problem]
    outs = {k: str(tmp_path / k) for k in ("trajectory", "events", "summary")}
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps({"schema": 1, **cfg, "outputs": outs}))
    assert main(["simulate", str(cfgp)]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "events").read_text())
    summary = b"\n".join(line for line in (tmp_path / "summary").read_bytes().split(b"\n")
                         if b'"wall_time_s"' not in line)
    digests = tuple(hashlib.sha256(data).hexdigest() for data in (
        (tmp_path / "trajectory").read_bytes(), (tmp_path / "events").read_bytes(), summary))
    assert digests == pinned


def test_simulate_evaluates_gamma_once_per_sample(tmp_path, capsys, monkeypatch):
    # the CSV's gamma column and the summary's invariant errors are read from
    # the column integrate records, not recomputed; calls counts the gamma
    # values computed, one a state whether gamma gets a state or columns
    calls = [0]
    make = cli._problem

    def counted_problem(cfg):
        p = make(cfg)

        def gamma(z):
            calls[0] += np.size(z[0])
            return p.gamma(z)

        return dataclasses.replace(p, gamma=gamma)

    monkeypatch.setattr(cli, "_problem", counted_problem)
    cfg, _ = PINNED_RUNS["sitnikov"]
    outs = {k: str(tmp_path / k) for k in ("trajectory", "events", "summary")}
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps({"schema": 1, **cfg, "outputs": outs}))
    assert main(["simulate", str(cfgp)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "summary").read_text())
    assert summary["samples"] == 2001 and calls[0] == 2001


def _patch_field(monkeypatch, field_of):
    """Run every problem with field_of(its field) as its field."""
    make = cli._problem
    monkeypatch.setattr(cli, "_problem",
                        lambda cfg: dataclasses.replace(make(cfg), field=field_of(make(cfg).field)))


def test_simulate_fails_before_the_march_on_an_unwritable_trajectory_path(
        tmp_path, capsys, monkeypatch):
    calls = [0]

    def counted(field):
        def f(y):
            calls[0] += 1
            return field(y)
        return f

    _patch_field(monkeypatch, counted)
    cfgp = tmp_path / "run.json"
    write_config(cfgp, outputs={"trajectory": str(tmp_path / "missing" / "t.csv")})
    assert main(["simulate", str(cfgp)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and err.startswith("error: ") and "missing" in err
    assert calls[0] == 0
    assert not list(tmp_path.glob("run_*"))


def _config_file(directory, cfg, outputs) -> str:
    path = directory / "run.json"
    path.write_text(json.dumps({"schema": 1, **cfg, "outputs": outputs}))
    return str(path)


class _FieldBug(Exception):
    pass


def _handed_configs(monkeypatch):
    """The IntegratorConfig of each call run_simulation makes to integrate,
    recorded by a wrapper around cli.integrate."""
    handed, integrate = [], cli.integrate

    def recorded(field, y0, span, cfg, **kwargs):
        handed.append(cfg)
        return integrate(field, y0, span, cfg, **kwargs)

    monkeypatch.setattr(cli, "integrate", recorded)
    return handed


def _failing_after(calls, make_failure):
    def field_of(field):
        count = [0]

        def f(y):
            count[0] += 1
            if count[0] > calls:
                return make_failure(y)
            return field(y)
        return f
    return field_of


def _raise_field_bug(y):
    raise _FieldBug("the field broke")


@pytest.mark.parametrize("failure", ["level_guard", "step_failure", "field_raises",
                                     "helper_fails"])
def test_a_failed_run_stops_its_csv_helper_and_keeps_its_trajectory(
        tmp_path, capsys, monkeypatch, forks, failure):
    # every failure lands past the second block of samples, when the helper
    # has blocks of its own; the CSV of a StepFailure is that of its partial
    # trajectory, written after the fact, and any other failure leaves none
    cfg, _ = PINNED_RUNS["sitnikov"]
    cfg = {**cfg, "integrator": {"step": 1e-3}, "span": 20.0}
    if failure == "level_guard":  # the escape that trips the guard at sample 12100
        cfg = {**cfg, "N": 3, "h": -1.0,
               "initial": {"chart": "regularized", "state": [0.0, 0.1, 1.0, 0.0]},
               "integrator": {"method": "implicit_midpoint", "step": 5e-4}}
    elif failure == "step_failure":
        _patch_field(monkeypatch, _failing_after(9000, lambda y: (math.nan,) * len(y)))
    elif failure == "field_raises":
        _patch_field(monkeypatch, _failing_after(9000, _raise_field_bug))
    else:
        parent, fmt = os.getpid(), integrators._format

        def format_rows(*args):
            if os.getpid() != parent:
                raise OSError("no space left for the helper's rows")
            return fmt(*args)

        monkeypatch.setattr(integrators, "_format", format_rows)
    outs = {k: str(tmp_path / k) for k in ("trajectory", "events", "summary")}
    run = _config_file(tmp_path, cfg, outs)
    handed = _handed_configs(monkeypatch)
    if failure == "helper_fails":
        assert main(["simulate", run]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "helper process exited with code 1" in err
    else:
        with pytest.raises(_FieldBug if failure == "field_raises" else StepFailure) as exc:
            cli.run_simulation(load_run_config(run), outs)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # the helper is gone and reaped
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "summary").exists()
    if failure in ("level_guard", "step_failure"):
        part = exc.value.trajectory
        assert len(part) > 2 * integrators.GUARD_BLOCK
        # the run streamed its samples and kept its last block; the same
        # march without on_block keeps them all
        cfg = load_run_config(run)
        p = cli._problem(cfg)
        (icfg,) = handed  # the run's one march
        with pytest.raises(StepFailure) as whole:
            integrators.integrate(p.field, p.project(cfg["initial"]["state"]), cfg["span"],
                                  icfg, time_scale=p.clock, invariant=p.gamma)
        assert str(whole.value) == str(exc.value)
        assert len(whole.value.trajectory) == len(part)
        integrators.write_regularized_csv(whole.value.trajectory, tmp_path / "after.csv")
        assert (tmp_path / "trajectory").read_bytes() == (tmp_path / "after.csv").read_bytes()
        assert (tmp_path / "events").exists()
    else:
        assert not (tmp_path / "trajectory").exists() and not (tmp_path / "events").exists()


def _simulate_in_a_daemon(argv):
    import multiprocessing

    assert multiprocessing.current_process().daemon and not integrators._can_fork()
    sys.exit(main(argv))


def test_a_run_that_cannot_fork_writes_the_same_bytes(tmp_path, capsys, monkeypatch, forks):
    # one job of 10001 samples, run in this process, which forks the CSV
    # writer's helper, then beside a second thread and in a daemonic process,
    # where the writer formats each block itself, and as a sweep job; every
    # run is named as the sweep names its job, so the output names agree
    import multiprocessing
    import threading

    cfg, _ = PINNED_RUNS["sitnikov"]
    cfg = {**cfg, "integrator": {"step": 1e-3}}

    def config_in(where, **extra):
        (tmp_path / where).mkdir()
        path = tmp_path / where / ("s.json" if extra else "s_sweep000.json")
        path.write_text(json.dumps({"schema": 1, **cfg, **extra}))
        return str(path)

    def outputs(where):
        return tuple(b"\n".join(line for line in (tmp_path / where / name).read_bytes().split(b"\n")
                                if b'"wall_time_s"' not in line)
                     for name in ("s_sweep000_trajectory.csv", "s_sweep000_events.json",
                                  "s_sweep000_summary.json"))

    assert main(["simulate", config_in("alone")]) == 0
    assert len(forks) == 1
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not integrators._can_fork()
        assert main(["simulate", config_in("thread")]) == 0
    finally:
        stop.set()
        thread.join()
    assert len(forks) == 1
    proc = multiprocessing.get_context("fork").Process(
        target=_simulate_in_a_daemon, args=(["simulate", config_in("daemon")],), daemon=True)
    proc.start()
    proc.join(120)
    assert proc.exitcode == 0
    monkeypatch.setenv("COLLREG_THREADS", "1")
    assert main(["simulate", config_in("sweep", sweep=[{}])]) == 0
    capsys.readouterr()
    alone = outputs("alone")
    assert alone[0].count(b"\n") == 1 + 10001
    for where in ("thread", "daemon", "sweep"):
        assert outputs(where) == alone, where


@pytest.mark.parametrize("field, value", [
    ("span", math.inf), ("span", math.nan), ("span", True), ("span", -math.inf),
    ("h", math.nan), ("m", math.nan), ("epsilon", math.nan),
    ("initial.state", [math.nan, 0.1, 1.0, 0.0]), ("initial.state", [0.0, 0.1, True, 0.0]),
    ("integrator.step", math.nan), ("integrator.step", True),
    ("integrator.newton_tol", math.inf), ("mu_grav", math.nan),
    # guard is no setting (the proximity guard is a constant): refused as an unknown key
    ("guard", math.nan), ("stop_at_q", "far"),
    # an int beyond float range, which math.isfinite cannot take
    pytest.param("span", 10**400, id="span-10**400"),
    pytest.param("N", 10**400, id="N-10**400"),
    pytest.param("initial.state", [10**400, 0.1, 1.0, 0.0], id="initial.state-10**400"),
])
def test_non_finite_config_numbers_are_refused(tmp_path, capsys, field, value):
    # json.load accepts NaN and +-Infinity, and true is an int to Python: each
    # is a configuration error naming its field, before any step
    cfg = {"schema": 1, "problem": "sitnikov", "N": 2, "m": 1e-3, "epsilon": 0.3,
           "h": -2.5, "initial": {"chart": "regularized", "state": [0.0, 0.1, 1.0, 0.0]},
           "integrator": {"method": "implicit_midpoint", "step": 1e-3}, "span": 2.0,
           "outputs": {k: str(tmp_path / k) for k in ("trajectory", "events", "summary")}}
    if field == "mu_grav":
        cfg.update(problem="kepler1d", initial={"chart": "regularized", "state": [0.0, 1.0]})
        for key in ("N", "m", "epsilon"):
            del cfg[key]
    head, _, key = field.rpartition(".")
    (cfg[head] if head else cfg)[key] = value
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps(cfg))
    assert main(["simulate", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error (field {field})" in err
    # one short line whatever the value refused: an int of 401 digits, as
    # CI's big.json span, is shown by its count of digits
    assert err.count("\n") == 1 and (" must be " not in err or len(err) < 200)
    if value == 10**400:
        assert err.endswith(", got an integer of 401 digits\n")
    assert not (tmp_path / "trajectory").exists()


@pytest.mark.parametrize("problem, field, value", [
    ("reduced", "m", -1e-3), ("reduced", "m", 0), ("sitnikov", "m", -1e-3),
    ("kepler1d", "mu_grav", -1.0), ("kepler1d", "mu_grav", 0),
])
def test_non_positive_masses_are_refused(tmp_path, capsys, problem, field, value):
    # the reduced and kepler1d starts have real momentum on their levels, so
    # without the check they would run a repulsive or absent force as if valid
    starts = {"reduced": [0.5, -1.0], "sitnikov": [0.5, 0.1, -1.0, 0.0], "kepler1d": [2.0, 1.0]}
    cfgp = tmp_path / "run.json"
    write_config(cfgp, problem=problem, h=-1.0 if problem == "reduced" else 0.5,
                 initial={"chart": "regularized", "state": starts[problem]},
                 integrator={"method": "implicit_midpoint", "step": 5e-3}, span=2.0,
                 **({"epsilon": 0.3} if problem == "sitnikov" else {}), **{field: value})
    assert main(["simulate", str(cfgp)]) == 2
    assert f"configuration error (field {field})" in capsys.readouterr().err
    assert not (tmp_path / "run_trajectory.csv").exists()


@pytest.mark.parametrize("value", [0, -3, 2.5, 50])
def test_bad_newton_max_iter_is_a_config_error(tmp_path, capsys, value):
    # the solve's iteration budget is no setting, so the key is refused as
    # any unknown one, even at the value the budget has
    cfgp = tmp_path / "run.json"
    write_config(cfgp, integrator={"method": "implicit_midpoint", "step": 1e-3,
                                   "newton_max_iter": value})
    assert main(["simulate", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert "configuration error (field integrator.newton_max_iter)" in err
    assert "unknown integrator setting 'newton_max_iter'" in err
    assert not (tmp_path / "run_trajectory.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("trajectory", 1), ("events", None), ("summary", ["a"]), ("trajectory", ""),
    ("events", {"path": "e.json"}),
    # a misspelt output would leave the trajectory at its default path
    ("trajectroy", "wanted.csv"),
])
def test_output_paths_must_be_nonempty_strings(tmp_path, capsys, key, value):
    outs = {k: str(tmp_path / k) for k in ("trajectory", "events", "summary")}
    cfgp = tmp_path / "run.json"
    write_config(cfgp, outputs={**outs, key: value})
    assert main(["simulate", str(cfgp)]) == 2
    assert f"configuration error (field outputs.{key})" in capsys.readouterr().err
    assert not any((tmp_path / k).exists() for k in outs)
    write_config(cfgp, outputs={key: value})
    assert main(["simulate", str(cfgp)]) == 2
    assert f"configuration error (field outputs.{key})" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("key", ["setp", "Step", "tolerance", "adaptive_tol"])
def test_unknown_integrator_keys_are_refused(tmp_path, capsys, key):
    # a misspelt setting would otherwise run silently at the default step
    cfgp = tmp_path / "run.json"
    write_config(cfgp, integrator={"method": "implicit_midpoint", key: 0.5})
    assert main(["simulate", str(cfgp)]) == 2
    assert f"configuration error (field integrator.{key})" in capsys.readouterr().err
    assert not any(tmp_path.glob("run_*"))


def test_integrator_settings_left_out_take_the_dataclass_defaults(tmp_path, monkeypatch):
    # observed where run_simulation hands its IntegratorConfig to integrate
    cfgp = tmp_path / "run.json"
    write_config(cfgp, integrator={"step": 2})
    handed = _handed_configs(monkeypatch)
    outs = {k: str(tmp_path / k) for k in ("trajectory", "events", "summary")}
    with pytest.raises(StepFailure):  # a step of 2 leaves the level in the first step
        cli.run_simulation(load_run_config(str(cfgp)), outs)
    (icfg,) = handed
    assert icfg == IntegratorConfig(step=2.0) and isinstance(icfg.step, float)


@pytest.mark.parametrize("problem", sorted(PINNED_RUNS))
def test_a_validated_config_validates_again(tmp_path, problem):
    # validation returns the document it checks, unchanged: nothing is
    # attached that a second validation would refuse as an unknown key
    cfg, _ = PINNED_RUNS[problem]
    outs = {k: str(tmp_path / k) for k in ("trajectory", "events", "summary")}
    doc = {"schema": 1, **cfg, "outputs": outs, "sweep": [{"h": -2.0}]}
    copy = json.loads(json.dumps(doc))
    assert cli.validate_run_config(cli.validate_run_config(doc)) == copy
    assert doc == copy


@pytest.mark.parametrize("setting", ["--step=inf", "--step=nan"])
def test_period_refuses_a_non_finite_step(capsys, setting):
    # an infinite step would run the midpoint solve on inf and fail inside it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["period", "--h", "-1", "--m", "1e-3", "--N", "3", setting]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: step must be positive and finite")
    assert captured.err.count("\n") == 1 and not captured.out


@pytest.mark.parametrize("step", ["0", "-0.0", "-1e-3"])
def test_period_refuses_a_step_that_is_not_positive_before_the_flow(monkeypatch, capsys,
                                                                   step):
    # a zero step used to end in a ZeroDivisionError from the step budget
    def no_work(*args, **kwargs):
        raise AssertionError("the period flow started")

    monkeypatch.setattr(analysis, "integrate", no_work)
    message = f"step must be positive and finite, got {float(step)}"
    with pytest.raises(ParameterError, match=message):
        analysis.period(-1.0, 1e-3, ring_radius(3), method="flow", step=float(step))
    with pytest.raises(ParameterError, match=message):
        analysis.period_report(-1.0, 1e-3, 3, step=float(step))
    assert main(["period", "--h", "-1", "--m", "1e-3", "--N", "3", f"--step={step}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and not captured.out


@pytest.mark.parametrize("key", ["step", "newton_tol"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_integrator_config_refuses_a_non_finite_setting(key, value):
    with pytest.raises(ParameterError):
        IntegratorConfig(**{key: value})


@pytest.mark.parametrize("key", ["spn", "stop_at_Q", "guard"])
def test_an_unknown_top_level_key_is_refused(tmp_path, capsys, monkeypatch, key):
    # a misspelt key, or guard (the proximity guard is a constant), would
    # otherwise be ignored: a misspelt stop_at_q lets a physical run march
    # its whole span
    cfgp = tmp_path / "run.json"
    write_config(cfgp, problem="sitnikov", epsilon=0.3, span=2.0, **{key: 3},
                 initial={"chart": "physical", "state": [1.0, -1.0, 1.4, -1.4]})
    assert main(["simulate", str(cfgp)]) == 2
    assert f"configuration error (field {key}): unknown run setting" in capsys.readouterr().err
    assert not any(tmp_path.glob("run_*"))
    # in a sweep, on the merged entry: only that job fails
    write_config(cfgp, span=1.0, sweep=[{}, {key: 3}])
    monkeypatch.setenv("COLLREG_THREADS", "1")
    assert main(["simulate", str(cfgp)]) == 3
    out, err = capsys.readouterr()
    assert "sweep job 000 done" in out
    assert f"sweep job 001 failed: SchemaError: unknown run setting {key!r}" in err
    assert not list(tmp_path.glob("run_sweep001_*"))


@pytest.mark.parametrize("problem, h, state", [
    ("sitnikov", -2.5, [0.0, 0.0, 1.0, 0.0]), ("reduced", -1.0, [0.5, -1.0]),
    ("kepler1d", 0.5, [2.0, 1.0]),
])
def test_stop_at_q_is_refused_outside_a_physical_run(tmp_path, capsys, monkeypatch,
                                                     problem, h, state):
    # only the physical chart's oracle reads stop_at_q: a regularized run
    # carrying it would march its whole span as if it were absent
    cfgp = tmp_path / "run.json"
    write_config(cfgp, problem=problem, h=h, span=20.0, stop_at_q=0.5,
                 initial={"chart": "regularized", "state": state},
                 **({"epsilon": 0.3} if problem == "sitnikov" else {}))
    assert main(["simulate", str(cfgp)]) == 2
    out, err = capsys.readouterr()
    assert not out and "configuration error (field stop_at_q)" in err
    assert not any(tmp_path.glob("run_*"))
    # in a sweep, on the merged entry: only that job fails
    cfg = json.loads(cfgp.read_text())
    del cfg["stop_at_q"]
    cfgp.write_text(json.dumps({**cfg, "span": 1.0, "sweep": [{}, {"stop_at_q": 0.5}]}))
    monkeypatch.setenv("COLLREG_THREADS", "1")
    assert main(["simulate", str(cfgp)]) == 3
    out, err = capsys.readouterr()
    assert "sweep job 000 done" in out
    assert ("sweep job 001 failed: SchemaError: unknown run setting 'stop_at_q' for a "
            f"regularized {problem} run") in err
    assert not list(tmp_path.glob("run_sweep001_*"))


@pytest.mark.parametrize("problem, unread", [
    ("kepler1d", {"N": "three", "m": -5, "epsilon": "x"}), ("kepler1d", {"epsilon": 0.0}),
    ("sitnikov", {"mu_grav": "bad"}), ("reduced", {"mu_grav": 1.0}),
])
def test_a_number_its_run_does_not_read_is_refused(tmp_path, capsys, monkeypatch,
                                                   problem, unread):
    # a key that names a setting of another run would be ignored, whatever
    # its value: the run names the first such key
    runs = {"reduced": {}, "sitnikov": {"problem": "sitnikov", "epsilon": 0.3, "h": -2.5,
                                        "initial": {"chart": "regularized",
                                                    "state": [0.0, 0.0, 1.0, 0.0]}},
            "kepler1d": {"problem": "kepler1d", "h": 0.5,
                         "initial": {"chart": "regularized", "state": [2.0, 1.0]}}}
    key = next(iter(unread))
    cfgp = tmp_path / "run.json"
    write_config(cfgp, **runs[problem], span=1.0, **unread)
    assert main(["simulate", str(cfgp)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith(f"configuration error (field {key}): unknown run setting")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    # in a sweep, on the merged entry: only that job fails
    write_config(cfgp, **runs[problem], span=1.0, sweep=[{}, unread])
    monkeypatch.setenv("COLLREG_THREADS", "1")
    assert main(["simulate", str(cfgp)]) == 3
    out, err = capsys.readouterr()
    assert "sweep job 000 done" in out
    assert f"sweep job 001 failed: SchemaError: unknown run setting {key!r}" in err
    assert not list(tmp_path.glob("run_sweep001_*"))


@pytest.mark.parametrize("stop_at_q", [-5.0, 0.0, 0.5, 1.0])
def test_a_start_at_or_beyond_stop_at_q_is_refused_before_the_run(tmp_path, capsys,
                                                                  monkeypatch, stop_at_q):
    # the escape event fires only on a crossing, so from max(q1, -q2) = 1 >=
    # stop_at_q the run would march its whole span of 1e6
    def no_field(params, ring):
        def evaluated(y):
            raise AssertionError("the oracle evaluated its field")

        return evaluated

    monkeypatch.setattr(integrators, "make_physical_rhs", no_field)
    start = [1.0, -1.0, 1.4280596563168613, -1.4280596563168613]
    with pytest.raises(ParameterError, match="already lies at stop_at_q"):
        integrate_physical_oracle(start, 1e6, MassParams(m=1e-3, epsilon=0.3),
                                  RingConfig.for_count(2), stop_at_q=stop_at_q)
    cfgp = tmp_path / "run.json"
    write_config(cfgp, problem="sitnikov", epsilon=0.3, span=1e6, stop_at_q=stop_at_q,
                 initial={"chart": "physical", "state": start})
    assert main(["simulate", str(cfgp)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith(f"error: the start already lies at stop_at_q={stop_at_q}")
    assert not any(tmp_path.glob("run_*"))


def test_simulate_refuses_a_method_other_than_the_midpoint(tmp_path, capsys):
    cfgp = tmp_path / "run.json"
    write_config(cfgp, integrator={"method": "rk4", "step": 1e-3})
    assert main(["simulate", str(cfgp)]) == 2
    assert "configuration error (field integrator.method)" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["spn", "initial.stat", "integrator.setp",
                                   "outputs.trajectroy"])
def test_an_unknown_key_in_any_block_is_refused(tmp_path, capsys, monkeypatch, field):
    # each block of a run config is checked against its own table: a misspelt
    # key is refused as <block>.<key>, alone and in one sweep entry, where
    # only that job fails
    block, _, key = field.rpartition(".")
    cfgp = tmp_path / "run.json"
    cfg = write_config(cfgp, span=1.0)
    wanted = str(tmp_path / "wanted.csv")
    bad = {block: {**cfg.get(block, {}), key: wanted}} if block else {key: wanted}
    write_config(cfgp, span=1.0, **bad)
    assert main(["simulate", str(cfgp)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith(f"configuration error (field {field}): unknown ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    write_config(cfgp, span=1.0, sweep=[{}, bad])
    monkeypatch.setenv("COLLREG_THREADS", "1")
    assert main(["simulate", str(cfgp)]) == 3
    out, err = capsys.readouterr()
    assert "sweep job 000 done" in out and "sweep job 001 done" not in out
    assert "sweep job 001 failed: SchemaError: unknown " in err
    assert not list(tmp_path.glob("run_sweep001_*")) and not (tmp_path / "wanted.csv").exists()


@pytest.mark.parametrize("initial, message", [
    ({"state": [0.5, -1.0]}, "missing required field 'initial.chart'"),
    ({"chart": 3, "state": [0.5, -1.0]}, "field 'initial.chart' must be a string, got 3"),
    ({"chart": "polar", "state": [0.5, -1.0]}, "problem 'reduced' has no 'polar' chart"),
    ({"chart": "regularized"}, "missing required field 'initial.state'"),
    ({"chart": "regularized", "state": "x"}, "field 'initial.state' must be 2 finite numbers"),
])
def test_a_missing_or_mistyped_chart_or_state_names_its_field(tmp_path, capsys, initial,
                                                              message):
    field = "initial.chart" if "chart" in message else "initial.state"
    cfgp = tmp_path / "run.json"
    write_config(cfgp, initial=initial)
    assert main(["simulate", str(cfgp)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith(f"configuration error (field {field}): {message}")
    assert not any(tmp_path.glob("run_*"))


@pytest.mark.parametrize("problem, state", [
    ("reduced", [5.0, 1.0]), ("sitnikov", [5.0, 0.0, 1.0, 0.0]), ("kepler1d", [5.0, 1.0]),
])
def test_simulate_refuses_a_start_with_no_momentum_on_its_level(tmp_path, capsys,
                                                                 problem, state):
    cfgp = tmp_path / "run.json"
    write_config(cfgp, problem=problem, initial={"chart": "regularized", "state": state}, h=-0.5)
    assert main(["simulate", str(cfgp)]) == 2
    assert "no real momentum" in capsys.readouterr().err


@pytest.mark.parametrize("h, m", [("0", "1e-3"), ("0.5", "1e-3"), ("nan", "1e-3"),
                                  ("-1", "0"), ("-1", "-1e-3"), ("-inf", "1e-3"),
                                  ("-1", "inf"), ("-1e-8", "1e-3")])
def test_period_refuses_inputs_without_a_periodic_orbit(monkeypatch, capsys, h, m):
    # a parabolic or hyperbolic orbit never returns, m = 0 starts at the rest
    # point, a non-finite h or m has no orbit, and at h = -1e-8 the return
    # needs at least 1e8 steps of 2e-4: each is refused before the flow takes
    # a step
    def no_work(*args, **kwargs):
        raise AssertionError("the period flow started")

    monkeypatch.setattr(analysis, "integrate", no_work)
    start = time.perf_counter()
    assert main(["period", f"--h={h}", f"--m={m}", "--N", "3"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["period", "levelset", "classify"])
@pytest.mark.parametrize("text, value", [("-1e-1", -0.1), ("-1E+2", -100.0), ("-.5", -0.5)])
def test_negative_numbers_in_exponent_form_are_values(command, text, value):
    rest = [] if command == "classify" else ["--m", "1e-3", "--N", "3"]
    assert build_parser().parse_args([command, "--h", text, *rest]).h == value


def test_schema_errors_name_the_field(tmp_path, capsys):
    cfgp = tmp_path / "bad.json"
    cfg = json.loads(json.dumps({
        "schema": 1,
        "problem": "reduced",
        "N": 2, "m": 1e-3, "epsilon": 0.0, "h": -1.0,
        "initial": {"chart": "regularized", "state": [0.0, 1.0]},
        "span": 1.0,
    }))
    del cfg["h"]
    cfgp.write_text(json.dumps(cfg))
    assert main(["simulate", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert "h" in err and "configuration error" in err

    with pytest.raises(SchemaError) as exc:
        cfg2 = dict(cfg, h=-1.0, problem="unknown")
        cfgp.write_text(json.dumps(cfg2))
        load_run_config(str(cfgp))
    assert exc.value.field == "problem"


@pytest.mark.parametrize("schema", [True, 1.0])
def test_a_schema_that_equals_1_but_is_no_integer_is_refused(tmp_path, capsys, schema):
    # True == 1.0 == 1 in Python; the schema is the integer 1, so neither
    # runs, and no file is written
    cfgp = tmp_path / "run.json"
    write_config(cfgp, span=1.0, schema=schema)
    assert main(["simulate", str(cfgp)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == (f"configuration error (field schema): "
                               f"unsupported schema {schema!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_schema_rejects_bad_state_length(tmp_path):
    cfgp = tmp_path / "bad2.json"
    write_config(cfgp, initial={"chart": "regularized", "state": [0.0, 1.0, 2.0]})
    with pytest.raises(SchemaError) as exc:
        load_run_config(str(cfgp))
    assert exc.value.field == "initial.state"


@pytest.mark.parametrize("argv", [
    ["classify", "--h", "nan"],
    ["classify", "--h", "inf"],
    ["classify", "--h", "-inf"],
    ["period", "--h", "nan", "--m", "1e-3", "--N", "3"],
    ["period", "--h", "-1", "--m", "inf", "--N", "3"],
    ["levelset", "--h", "nan", "--m", "1e-3", "--N", "3"],
    ["levelset", "--h", "-1", "--m", "nan", "--N", "3"],
    ["levelset", "--h", "inf", "--m", "1e-3", "--N", "3"],
    ["levelset", "--h", "-1", "--m", "inf", "--N", "3"],
    # negative non-finite values are values, not options, in any case
    ["classify", "--h", "-nan"],
    ["classify", "--h", "-NaN"],
    ["levelset", "--h", "-1", "--m", "-inf", "--N", "3"],
    ["levelset", "--h", "-Infinity", "--m", "1e-3", "--N", "3"],
    # an N beyond float range overflows the ring radius
    ["period", "--h", "-1", "--m", "1e-3", "--N", "1" + "0" * 400],
    ["levelset", "--h", "-1", "--m", "1e-3", "--N", "1" + "0" * 400],
])
def test_non_finite_energies_and_masses_are_refused(tmp_path, capsys, argv):
    huge = len(argv[-1]) > 400  # an N of 401 digits: the error names N, not its digits
    if argv[0] == "levelset":
        argv = argv + ["--output", str(tmp_path / "ls.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    assert not (tmp_path / "ls.csv").exists()
    if huge:
        assert captured.err == "error: need at most 10000000 primaries, got an N of 401 digits\n"


@pytest.mark.parametrize("command", ["period", "levelset", "simulate"])
def test_a_ring_of_more_primaries_than_the_cap_is_refused_at_once(tmp_path, capsys,
                                                                  monkeypatch, command):
    # the ring radius sums N/2 terms, so N = 10**12 would run for hours; a
    # valid integer past config.MAX_PRIMARIES is refused before any work.
    # Each term calls sin, which raises here, so a refusal that came too
    # late fails the test at its first term rather than hanging it
    def summed(x):
        raise AssertionError("the ring radius summed a term of an N past the cap")

    monkeypatch.setattr(config.math, "sin", summed)
    cfgp = tmp_path / "run.json"
    write_config(cfgp, problem="sitnikov", N=10**12, epsilon=0.3, h=-2.5,
                 initial={"chart": "regularized", "state": [0.0, 0.0, 1.0, 0.0]})
    ring = ["--h", "-1", "--m", "1e-3", "--N", str(10**12)]
    argv = {"period": ["period", *ring],
            "levelset": ["levelset", *ring, "--output", str(tmp_path / "ls.csv")],
            "simulate": ["simulate", str(cfgp)]}[command]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert captured.err == "error: need at most 10000000 primaries, got an N of 13 digits\n"
    assert not captured.out and sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("flag", ["--qmax", "--pmax"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_levelset_refuses_a_non_finite_window(tmp_path, capsys, flag, value):
    out = tmp_path / "ls.csv"
    argv = ["levelset", "--h", "-1", "--m", "1e-3", "--N", "3", flag, value, "--output", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "grid window" in captured.err
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("flag, name", [("--qmax", "Q1"), ("--pmax", "P1")])
def test_levelset_refuses_a_window_of_zero_width(tmp_path, capsys, flag, name):
    # (-0.0, 0.0) used to give 402 rows of 4 distinct points
    out = tmp_path / "ls.csv"
    argv = ["levelset", "--h", "-1", "--m", "1e-3", "--N", "3", flag, "0", "--output", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: the level set needs a {name} range with two distinct "
                            f"ends, got {name} range (-0.0, 0.0)\n")
    assert not captured.out and not out.exists()


def test_an_unwritable_output_is_an_error_not_a_traceback(tmp_path, capsys):
    # the output path is a directory: open fails with an OSError
    assert main(["levelset", "--h", "-1", "--m", "1e-3", "--N", "3", "--resolution", "21",
                 "--output", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert not captured.out


def test_levelset_command(tmp_path, capsys):
    out = tmp_path / "ls.csv"
    assert main(["levelset", "--h", "-1", "--m", "1e-3", "--N", "3",
                 "--resolution", "121", "--output", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "Q1,P1"
    a = 4.0 * ring_radius(3)
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) > 50
    for Q1, P1 in rows:
        assert abs(gamma_reduced((Q1, P1), -1.0, 1e-3, a)) < 1e-10
    as_set = set(rows)
    for Q1, P1 in rows:
        assert (-Q1, P1) in as_set and (Q1, -P1) in as_set


def test_a_long_levelset_csv_is_written_in_one_process(tmp_path, capsys, monkeypatch,
                                                       forks):
    # the level set goes through the trajectory writer with every block in
    # hand, so it forks no helper however many rows it has
    pts = np.random.default_rng(0).standard_normal((10000, 2))
    monkeypatch.setattr(analysis, "level_set_sample", lambda *args: pts)
    out = tmp_path / "ls.csv"
    assert main(["levelset", "--h", "-1", "--m", "1e-3", "--N", "3", "--output", str(out)]) == 0
    capsys.readouterr()
    assert forks == []
    assert out.read_bytes() == ("Q1,P1\n" + "".join(
        "%.17g,%.17g\n" % (q, p) for q, p in pts)).encode()


def test_levelset_csv_is_pinned(tmp_path, capsys):
    out = tmp_path / "ls.csv"
    assert main(["levelset", "--h", "-1", "--m", "1e-3", "--N", "3", "--output", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "7a91b50bf71a9187e57d77d44190490a365b81fdd6c84f271eaf927d8f0107e5")


@pytest.mark.parametrize("argv", [
    ["period", "--h", "-1", "--m", "1e-3", "--N", "3", "--step", "5e-4"],
    ["levelset", "--h", "-1", "--m", "1e-3", "--N", "3", "--resolution", "41"],
    ["classify", "--h", "-1"],
], ids=lambda argv: argv[0])
def test_analysis_commands_run_without_scipy(tmp_path, argv):
    # the package needs no scipy; with it blocked, importing any part of it
    # raises ImportError
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = ("import sys; sys.modules['scipy'] = None; from collreg.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_importing_the_cli_leaves_the_invariant_suite_unloaded():
    # simulate and period do not pay for verify's checks; only its command loads them
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = "import sys, collreg.cli; sys.exit('collreg.verify' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


@pytest.mark.parametrize("blocked", [True, False], ids=["blocked", "installed"])
def test_oracle_commands_run_without_scipy(tmp_path, blocked):
    # the physical-chart oracle is the package's own: with scipy blocked (a
    # None entry makes any import of it raise ImportError) verify's oracle
    # check and a physical simulate succeed, and with scipy installed neither
    # imports it
    cfgp = tmp_path / "phys.json"
    write_config(cfgp, problem="sitnikov", epsilon=0.2, h=0.25, stop_at_q=20.0, span=50.0,
                 initial={"chart": "physical", "state": [1.0, -1.0, 0.9, -0.9]})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = ("import json, sys\n"
            + ("sys.modules['scipy'] = None\n" if blocked else "")
            + "from collreg.cli import main\n"
            "codes = [main(['verify', '--filter', 'energy_conservation']),\n"
            "         main(['simulate', sys.argv[1]])]\n"
            "print(json.dumps([codes, [k for k in sys.modules if k.split('.')[0] == 'scipy']]))\n")
    run = subprocess.run([sys.executable, "-c", code, str(cfgp)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert '"all_passed": true' in run.stdout
    assert json.loads(run.stdout.splitlines()[-1]) == [[0, 0], ["scipy"] if blocked else []]
    assert "proximity_abort" in (tmp_path / "phys_events.json").read_text()


def test_period_command(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["period", "--h", "-1", "--m", "1e-3", "--N", "3",
                 "--step", "5e-4", "--output", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads(out.read_text())
    assert abs(rep["T_quadrature"] - rep["T_flow"]) / rep["T_quadrature"] < 1e-5


def test_verify_filter_subset(capsys):
    assert main(["verify", "--filter", "symplectic"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    assert {"symplectic.relative_map", "symplectic.euler_roundtrip",
            "symplectic.chart_jacobian"} <= names
    assert all("symplectic" in n for n in names)


def test_verify_filter_that_selects_no_check_is_an_error(capsys):
    assert main(["verify", "--filter", "nosuchcheck"]) == 2
    captured = capsys.readouterr()
    assert "'nosuchcheck' selects no check" in captured.err and not captured.out


def test_verify_classify_and_radius_checks(capsys):
    assert main(["verify", "--filter", "config."]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] and len(report["checks"]) == 3


def test_verify_full_suite_passes(capsys):
    # fresh build -> exit 0 across the whole 30-check report
    assert main(["verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] and len(report["checks"]) == 30


def test_mutation_flipped_sign_fails_chain_rule_oracle(monkeypatch):
    # a deliberately wrong sign in the reduced field, P1' flipped, must be
    # caught by the chain-rule oracle
    made = regularized.Problem.reduced

    def flipped(cls, *args):
        p = made(*args)

        def field(z):
            dz = p.field(z)
            return dz[0], -dz[1]

        return regularized.Problem(field, p.gamma, p.clock, p.project)

    monkeypatch.setattr(regularized.Problem, "reduced", classmethod(flipped))
    rec = verify.check_reduced_chain_rule()
    assert not rec["passed"]
    monkeypatch.undo()
    rec_ok = verify.check_reduced_chain_rule()
    assert rec_ok["passed"]


def test_sweep_runs(tmp_path, capsys):
    cfgp = tmp_path / "sweep.json"
    base = {
        "schema": 1,
        "problem": "reduced",
        "N": 2, "m": 1e-3, "epsilon": 0.0, "h": -1.0,
        "initial": {"chart": "regularized", "state": [0.0, 1.0]},
        "integrator": {"method": "implicit_midpoint", "step": 1e-3},
        "span": 3.0,
        "sweep": [{"h": -1.0}, {"h": -1.5}, {"h": -2.0}],
    }
    cfgp.write_text(json.dumps(base))
    import os
    os.environ["COLLREG_THREADS"] = "2"
    try:
        assert main(["simulate", str(cfgp)]) == 0
    finally:
        del os.environ["COLLREG_THREADS"]
    capsys.readouterr()
    for k in range(3):
        assert (tmp_path / f"sweep_sweep{k:03d}_summary.json").exists()


@pytest.mark.parametrize("threads", ["-1", "abc", ""])
def test_sweep_refuses_a_thread_count_that_is_not_a_count(tmp_path, capsys, monkeypatch,
                                                          threads):
    cfgp = tmp_path / "sweep.json"
    write_config(cfgp, span=1.0, sweep=[{}])
    monkeypatch.setenv("COLLREG_THREADS", threads)
    assert main(["simulate", str(cfgp)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == (f"error: COLLREG_THREADS must be a nonnegative integer, "
                               f"got {threads!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]


@pytest.mark.parametrize("digits", ["1" * 5000, "0" * 4999 + "1"], ids=["ones", "zeros_then_1"])
def test_sweep_refuses_a_thread_count_beyond_the_digits_int_converts(
        tmp_path, capsys, monkeypatch, digits):
    # int() refuses a string of more than 4300 digits with an error that does
    # not name the variable; the sweep refuses it as any other bad count,
    # before any job runs and with no pool started
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfgp = tmp_path / "sweep.json"
    write_config(cfgp, span=1.0, sweep=[{}])
    monkeypatch.setenv("COLLREG_THREADS", digits)
    assert main(["simulate", str(cfgp)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == ("error: COLLREG_THREADS must be a nonnegative integer, "
                               "got a str of 5002 characters\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]


def test_sweep_failed_job_leaves_the_others_running(tmp_path, capsys, monkeypatch):
    # the middle job starts at Q1=5, where h=-1 has no real momentum
    cfgp = tmp_path / "sweep.json"
    cfgp.write_text(json.dumps({
        "schema": 1,
        "problem": "reduced",
        "N": 2, "m": 1e-3, "epsilon": 0.0, "h": -1.0,
        "initial": {"chart": "regularized", "state": [0.0, 1.0]},
        "integrator": {"method": "implicit_midpoint", "step": 1e-3},
        "span": 3.0,
        "sweep": [{}, {"initial": {"chart": "regularized", "state": [5.0, 1.0]}},
                  {"h": -2.0}],
    }))
    monkeypatch.setenv("COLLREG_THREADS", "1")
    assert main(["simulate", str(cfgp)]) == 3
    out, err = capsys.readouterr()
    assert "sweep job 000 done" in out and "sweep job 002 done" in out
    assert "sweep job 001 failed" in err and "no real momentum" in err
    for k in (0, 2):
        for kind in ("trajectory.csv", "events.json", "summary.json"):
            assert (tmp_path / f"sweep_sweep{k:03d}_{kind}").exists()
    assert not list(tmp_path.glob("sweep_sweep001_*"))
    # the merged configs are validated in memory, not through temp files
    assert not list(tmp_path.glob("sweep_sweep???.json"))


def test_sweep_job_that_cannot_write_leaves_the_others_running(tmp_path, capsys, monkeypatch):
    # the middle job fails to open its trajectory path, a directory, before it integrates
    cfgp = tmp_path / "sweep.json"
    cfgp.write_text(json.dumps({
        "schema": 1,
        "problem": "reduced",
        "N": 2, "m": 1e-3, "epsilon": 0.0, "h": -1.0,
        "initial": {"chart": "regularized", "state": [0.0, 1.0]},
        "integrator": {"method": "implicit_midpoint", "step": 1e-3},
        "span": 3.0,
        "sweep": [{}, {"outputs": {"trajectory": str(tmp_path)}}, {"h": -2.0}],
    }))
    monkeypatch.setenv("COLLREG_THREADS", "1")
    assert main(["simulate", str(cfgp)]) == 3
    out, err = capsys.readouterr()
    assert "sweep job 000 done" in out and "sweep job 002 done" in out
    assert "sweep job 001 failed" in err and "Traceback" not in err
    for k in (0, 2):
        assert (tmp_path / f"sweep_sweep{k:03d}_summary.json").exists()
    assert not (tmp_path / "sweep_sweep001_summary.json").exists()


def test_sweep_jobs_that_name_one_file_run_only_the_first(tmp_path, capsys, monkeypatch):
    # both jobs name same.csv, where two running jobs would interleave their
    # rows: every job's outputs are resolved before any runs, so job 001
    # fails unrun and job 000 writes what it writes alone
    monkeypatch.chdir(tmp_path)
    same = {"outputs": {"trajectory": "same.csv"}}
    cfgp = tmp_path / "sweep.json"
    write_config(cfgp, span=2.0, sweep=[{"h": -1.0, **same}, {"h": -1.5, **same}])
    monkeypatch.setenv("COLLREG_THREADS", "2")
    assert main(["simulate", str(cfgp)]) == 3
    out, err = capsys.readouterr()
    assert "sweep job 000 done" in out
    assert ("sweep job 001 failed: SchemaError: output 'trajectory' names same.csv, which "
            "sweep job 000 writes") in err
    assert not list(tmp_path.glob("sweep_sweep001_*"))
    write_config(tmp_path / "alone.json", span=2.0, h=-1.0,
                 outputs={"trajectory": str(tmp_path / "alone.csv")})
    assert main(["simulate", str(tmp_path / "alone.json")]) == 0
    capsys.readouterr()
    assert (tmp_path / "same.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_a_sweep_refuses_a_top_level_outputs(tmp_path, capsys, monkeypatch):
    # every job would take the one top-level outputs; each entry names its
    # own, so the sweep is refused before any job runs or any file is written.
    # The sweep list alone makes it a sweep: no lone run takes the outputs
    monkeypatch.chdir(tmp_path)
    cfgp = tmp_path / "sweep.json"
    write_config(cfgp, span=1.0, outputs={"trajectory": "wanted.csv"},
                 sweep=[{}, {"h": -1.5}])
    monkeypatch.setenv("COLLREG_THREADS", "1")
    assert main(["simulate", str(cfgp)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("configuration error (field outputs): ")
    assert err.count("\n") == 1 and "outputs" in err.split(": ", 1)[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]


def test_a_sweep_entry_schema_is_checked(tmp_path, capsys, monkeypatch):
    # an entry's own schema is validated, not overwritten: only that job fails
    cfgp = tmp_path / "sweep.json"
    write_config(cfgp, span=1.0, sweep=[{"schema": 1}, {"schema": 7, "h": -1.5}, {"h": -2.0}])
    monkeypatch.setenv("COLLREG_THREADS", "1")
    assert main(["simulate", str(cfgp)]) == 3
    out, err = capsys.readouterr()
    assert "sweep job 000 done" in out and "sweep job 002 done" in out
    assert "sweep job 001 failed: SchemaError: unsupported schema 7" in err
    assert not list(tmp_path.glob("sweep_sweep001_*"))
    assert len(list(tmp_path.glob("sweep_sweep00[02]_*"))) == 6


def test_a_config_with_a_sweep_list_runs_as_a_sweep(tmp_path, capsys, monkeypatch):
    # no flag: the list makes the run a sweep, and no lone run of the base
    cfgp = tmp_path / "s.json"
    write_config(cfgp, span=1.0, sweep=[{}, {"h": -1.5}])
    monkeypatch.setenv("COLLREG_THREADS", "1")
    assert main(["simulate", str(cfgp)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("sweep job 000 done: ") and "\nsweep job 001 done: " in out
    assert not err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"] + sorted(
        f"s_sweep00{k}_{name}" for k in (0, 1)
        for name in ("events.json", "summary.json", "trajectory.csv"))


@pytest.mark.parametrize("sweep", [[], {}, 3], ids=["empty", "object", "number"])
def test_a_sweep_that_is_not_a_nonempty_list_is_refused(tmp_path, capsys, sweep):
    cfgp = tmp_path / "s.json"
    write_config(cfgp, span=1.0, sweep=sweep)
    assert main(["simulate", str(cfgp)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == (f"configuration error (field sweep): field 'sweep' must be "
                               f"a nonempty list, got {sweep!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


def test_a_sweep_entry_with_a_sweep_of_its_own_fails_its_job(tmp_path, capsys, monkeypatch):
    # a nested list would otherwise be dropped and its entry run as a lone job
    cfgp = tmp_path / "s.json"
    write_config(cfgp, span=1.0, sweep=[{}, {"h": -1.5, "sweep": [{"h": -3.0}]}, {"h": -2.0}])
    monkeypatch.setenv("COLLREG_THREADS", "1")
    assert main(["simulate", str(cfgp)]) == 3
    out, err = capsys.readouterr()
    assert "sweep job 000 done" in out and "sweep job 002 done" in out
    assert err == ("sweep job 001 failed: SchemaError: sweep entries must be objects with no "
                   "sweep of their own\n")
    assert not list(tmp_path.glob("s_sweep001_*"))
    assert len(list(tmp_path.glob("s_sweep00[02]_*"))) == 6


def test_simulate_has_no_sweep_flag(tmp_path, capsys):
    # whether a run is a sweep is the config's to say, not the command line's
    cfgp = tmp_path / "s.json"
    write_config(cfgp, span=1.0)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(cfgp), "--sweep"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sweep" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


@pytest.mark.parametrize("threads, cpus", [("100000", 2), ("0", 64), (None, 64)])
def test_a_sweep_pool_takes_no_more_workers_than_runnable_jobs(
        tmp_path, capsys, monkeypatch, threads, cpus):
    # the pool forks all its workers at its first job, so its size is checked
    # on a stand-in that records it and runs the jobs here; two of the four
    # entries are refused before any job runs
    import concurrent.futures

    recorded = []

    class Pool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if threads is None:
        monkeypatch.delenv("COLLREG_THREADS", raising=False)
    else:
        monkeypatch.setenv("COLLREG_THREADS", threads)
    cfgp = tmp_path / "s.json"
    write_config(cfgp, span=1.0, sweep=[{}, 7, {"spn": 1.0}, {"h": -1.5}])
    assert main(["simulate", str(cfgp)]) == 3
    out, err = capsys.readouterr()
    assert out.count(" done: ") == 2 and err.count(" failed: ") == 2
    assert recorded == [2]
    # a sweep whose every job is refused asks for one worker and runs none
    recorded.clear()
    write_config(cfgp, span=1.0, sweep=[7, {"spn": 1.0}])
    assert main(["simulate", str(cfgp)]) == 3
    assert capsys.readouterr().err.count(" failed: ") == 2
    assert recorded == [1]


@pytest.mark.parametrize("key", ["trajectory", "events", "summary"])
def test_an_output_in_no_directory_or_naming_one_is_refused_before_the_march(
        tmp_path, capsys, monkeypatch, key):
    # refused before the march: an events or summary path is opened only
    # after it, which would leave the CSV written and no events or summary
    calls = [0]

    def counted(field):
        def f(y):
            calls[0] += 1
            return field(y)
        return f

    _patch_field(monkeypatch, counted)
    cfgp = tmp_path / "run.json"
    for bad, what in ((tmp_path / "missing" / "out", "is not in an existing directory"),
                      (tmp_path, "is a directory")):
        write_config(cfgp, outputs={key: str(bad)})
        assert main(["simulate", str(cfgp)]) == 2
        out, err = capsys.readouterr()
        assert not out and err == f"error: outputs.{key} {what}: {bad}\n"
        assert calls[0] == 0 and sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    # in a sweep only that job fails
    write_config(cfgp, span=1.0, sweep=[{"outputs": {key: str(tmp_path / "missing" / "out")}},
                                        {}])
    monkeypatch.setenv("COLLREG_THREADS", "1")
    assert main(["simulate", str(cfgp)]) == 3
    out, err = capsys.readouterr()
    assert f"sweep job 000 failed: OSError: outputs.{key} is not in an existing" in err
    assert "sweep job 001 done" in out and not list(tmp_path.glob("run_sweep000_*"))


def test_simulate_refuses_a_span_of_more_steps_than_a_float_counts(tmp_path, capsys, forks):
    # span / step overflows to inf: the run is refused before the march, and
    # the CSV writer, which forks its helper at its first block, forks none
    cfgp = tmp_path / "run.json"
    write_config(cfgp, span=1e308)
    assert main(["simulate", str(cfgp)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and err.startswith("error: ")
    assert "too many steps" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    assert len(forks) == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_job_of_too_many_steps_leaves_the_other_running(tmp_path, capsys, monkeypatch):
    cfgp = tmp_path / "sweep.json"
    write_config(cfgp, span=3.0, sweep=[{"span": 1e308}, {}])
    monkeypatch.setenv("COLLREG_THREADS", "2")
    assert main(["simulate", str(cfgp)]) == 3
    out, err = capsys.readouterr()
    assert "sweep job 000 failed: ParameterError" in err and "too many steps" in err
    assert "Traceback" not in err and "sweep job 001 done" in out
    assert not list(tmp_path.glob("sweep_sweep000_*"))
    assert (tmp_path / "sweep_sweep001_summary.json").exists()


def test_sweep_job_with_an_int_beyond_float_range_leaves_the_others_running(
        tmp_path, capsys, monkeypatch):
    # the span of job 001 has 401 digits: a configuration error of that job,
    # where it used to end the sweep in an OverflowError before job 002
    cfgp = tmp_path / "sweep.json"
    write_config(cfgp, span=1.0, sweep=[{}, {"span": 10**400}, {"h": -2.0}])
    monkeypatch.setenv("COLLREG_THREADS", "1")
    assert main(["simulate", str(cfgp)]) == 3
    out, err = capsys.readouterr()
    assert "sweep job 000 done" in out and "sweep job 002 done" in out
    assert "sweep job 001 failed: SchemaError: field 'span' must be a finite number" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("sweep_sweep001_*"))


@pytest.mark.parametrize("same", [("trajectory", "events"), ("events", "summary"),
                                  ("trajectory", "summary")])
def test_outputs_that_name_one_file_are_refused(tmp_path, capsys, monkeypatch, same):
    # one spelled relatively and one absolutely: the events JSON would
    # otherwise replace the trajectory CSV, or the summary the events
    monkeypatch.chdir(tmp_path)
    cfgp = tmp_path / "run.json"
    write_config(cfgp, outputs={same[0]: "out", same[1]: str(tmp_path / "." / "out")})
    assert main(["simulate", str(cfgp)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and "(field outputs)" in err
    assert f"'{same[0]}' and '{same[1]}'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    # a sweep job that names one file fails alone
    write_config(cfgp, span=1.0, sweep=[{"outputs": {same[0]: "out", same[1]: "./out"}}, {}])
    monkeypatch.setenv("COLLREG_THREADS", "1")
    assert main(["simulate", str(cfgp)]) == 3
    out, err = capsys.readouterr()
    assert "sweep job 000 failed: SchemaError" in err and "sweep job 001 done" in out
    assert not (tmp_path / "out").exists() and not list(tmp_path.glob("run_sweep000_*"))
