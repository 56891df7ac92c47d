"""Spans and counts recorded around calls into collreg's public functions.

The program carries no instrumentation of its own, so the tracer swaps
wrappers into the collreg modules for the length of one operation and takes
them out again.  Each wrapper opens a span (name, start, end, parent) and
records the counts that belong to that boundary:

* the field handed to `integrators.integrate` is wrapped in a counter, which
  gives field evaluations, and the returned trajectory gives steps, samples
  and events;
* `integrators.make_physical_rhs`, as the physical-chart oracle sees it, is
  wrapped so the oracle's right-hand side is counted too;
* every `verify` check gets its own span.

Spans are kept in memory and written out by `dump` when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time

import numpy as np

REPLAY_MAX = 20000  # recorded states replayed per integrate call to price one evaluation


class _Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op")

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []
        self._op = -1
        self._integrations: list[dict] = []
        self._csv_bytes = 0
        self._physical_evals = 0

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        sp = _Span()
        sp.id = len(self.spans)
        sp.name = name
        sp.parent = self._stack[-1].id if self._stack else None
        sp.op = self._op
        sp.end = None
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_integrate(self, integrate):
        def wrapper(field, y0, span, cfg, *args, **kwargs):
            count = [0]

            def counted(y):
                count[0] += 1
                return field(y)

            rec = {"field": field, "step": cfg.step, "evals": 0, "steps": 0,
                   "samples": 0, "events": 0, "first_return_tau": None, "states": None}
            with self.span("integrators.integrate") as sp:
                rec["span"] = sp
                try:
                    traj = integrate(counted, y0, span, cfg, *args, **kwargs)
                finally:
                    rec["evals"] = count[0]
                    self._integrations.append(rec)
            rec["steps"] = int(round(float(traj.tau[-1]) / cfg.step))
            rec["samples"] = len(traj)
            rec["events"] = len(traj.events)
            returns = traj.collision_events()
            if returns:
                rec["first_return_tau"] = returns[0].tau
            rec["states"] = traj.states
            return traj

        return wrapper

    def _wrap_write_csv(self, write):
        def wrapper(traj, path, *args, **kwargs):
            with self.span("integrators.write_regularized_csv"):
                write(traj, path, *args, **kwargs)
            self._csv_bytes += os.path.getsize(path)

        return wrapper

    def _wrap_physical_rhs(self, make):
        def wrapper(*args, **kwargs):
            rhs = make(*args, **kwargs)

            def counted(y):
                self._physical_evals += 1
                return rhs(y)

            return counted

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Trace one operation: patch every collreg binding, restore on exit."""
        from collreg import analysis, cli, integrators, regularized, verify

        self._op += 1
        self._integrations = []
        self._csv_bytes = 0
        self._physical_evals = 0
        targets = [
            (cli.run_simulation, self._wrap("cli.run_simulation", cli.run_simulation)),
            (regularized.project_to_level,
             self._wrap("regularized.project_to_level", regularized.project_to_level)),
            (integrators.integrate, self._wrap_integrate(integrators.integrate)),
            (integrators.write_regularized_csv,
             self._wrap_write_csv(integrators.write_regularized_csv)),
            (integrators.write_events_json,
             self._wrap("integrators.write_events_json", integrators.write_events_json)),
            (analysis.period_report, self._wrap("analysis.period_report", analysis.period_report)),
            (integrators.integrate_physical_oracle,
             self._wrap("integrators.integrate_physical_oracle",
                        integrators.integrate_physical_oracle)),
        ]
        swaps = []  # (namespace, attribute, original)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "collreg" or n.startswith("collreg.")]
        for original, wrapper in targets:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        swaps.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        # only the oracle's own binding: other callers of make_physical_rhs are
        # not integrations
        swaps.append((integrators, "make_physical_rhs", integrators.make_physical_rhs))
        integrators.make_physical_rhs = self._wrap_physical_rhs(integrators.make_physical_rhs)
        swaps.append((verify, "CHECKS", verify.CHECKS))
        verify.CHECKS = [(name, self._wrap("verify." + name, fn)) for name, fn in verify.CHECKS]
        try:
            yield self
        finally:
            for mod, attr, original in reversed(swaps):
                setattr(mod, attr, original)

    # -- per-layer figures of the last traced operation --------------------

    def _children_time(self, sp):
        return sum(c.end - c.start for c in self.spans if c.parent == sp.id)

    def layers(self, check_names) -> dict:
        op_spans = [s for s in self.spans if s.op == self._op and s.end is not None]

        def total(name):
            return sum(s.end - s.start for s in op_spans if s.name == name)

        def self_time(name):
            return sum(s.end - s.start - self._children_time(s)
                       for s in op_spans if s.name == name)

        recs = self._integrations
        integrate_s = total("integrators.integrate")
        steps = sum(r["steps"] for r in recs)
        evals = sum(r["evals"] for r in recs)
        field_s = sum(r["evals"] * _price_evaluation(r) for r in recs)

        report_ids = {s.id for s in op_spans if s.name == "analysis.period_report"}
        in_report = [r for r in recs if r["span"].parent in report_ids]
        report_steps = sum(r["steps"] for r in in_report)
        found = [r for r in in_report if r["first_return_tau"] is not None]
        useful = math.ceil(found[0]["first_return_tau"] / found[0]["step"]) if found else 0

        out = {
            "field_evals": evals + self._physical_evals,
            "cli.run_simulation_s": self_time("cli.run_simulation"),
            "integrators.integrate_s": integrate_s,
            "integrators.steps": steps,
            "integrators.step_us": 1e6 * integrate_s / steps if steps else 0.0,
            "integrators.evals_per_step": evals / steps if steps else 0.0,
            "integrators.samples": sum(r["samples"] for r in recs),
            "integrators.events": sum(r["events"] for r in recs),
            "integrators.write_csv_s": total("integrators.write_regularized_csv"),
            "integrators.csv_bytes": self._csv_bytes,
            "regularized.field_eval_us": 1e6 * field_s / evals if evals else 0.0,
            "regularized.field_share": field_s / integrate_s if integrate_s else 0.0,
            "analysis.period_report_s": total("analysis.period_report"),
            "analysis.quadrature_s": self_time("analysis.period_report"),
            "analysis.useful_step_ratio": useful / report_steps if report_steps else 0.0,
            "physical.oracle_s": total("integrators.integrate_physical_oracle"),
            "physical.field_evals": self._physical_evals,
        }
        for name in check_names:
            out["verify.check_s." + name] = total("verify." + name)
        for rec in recs:  # drop the trajectories before the next operation
            rec["states"] = None
        return out

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": [s.as_dict() for s in self.spans]}, fh)
            fh.write("\n")


def _price_evaluation(rec) -> float:
    """Seconds per call of the unwrapped field, replayed over the states the
    integration recorded (evenly thinned to at most REPLAY_MAX)."""
    states = rec["states"]
    if states is None or not rec["evals"] or len(states) == 0:
        return 0.0
    idx = np.linspace(0, len(states) - 1, min(len(states), REPLAY_MAX)).astype(int)
    points = [tuple(row) for row in states[idx].tolist()]
    field = rec["field"]
    t0 = time.perf_counter()
    for p in points:
        field(p)
    return (time.perf_counter() - t0) / len(points)
