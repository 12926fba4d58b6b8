"""Per-layer tracing of one CLI invocation, from outside the package.

The tracer replaces functions at the module attributes where callers look
them up (``shockbeta.beta.solve_profile``, ``shockbeta.coupled.ivp_solve``,
``shockbeta.numerics.bvp.splu``, ...), records a span around each call and
accumulates self time: a span's duration minus the durations of the spans
it encloses.  Counters are taken at the same boundaries; rhs evaluations
are counted by wrapping ``problem.rhs`` of each IVP and BVP problem before
the solver sees it.  Everything is restored when the context exits, so
untraced runs call the package's own functions.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> reported self-time metric.  Every span is reported, so the
# self times of one invocation sum to its traced wall time.
SPAN_METRICS = {
    "cli.main": "cli.self_s",
    "config.build_model": "config.build_model_s",
    "profile.solve_profile": "profile.solve_profile_s",
    "ivp.solve": "ivp.solve_s",
    "integrating_factor.solve_auxiliary_if": "integrating_factor.solve_auxiliary_if_s",
    "integrating_factor.solve_v_if": "integrating_factor.solve_v_if_s",
    "coupled.solve_coupled": "coupled.solve_coupled_self_s",
    "coupled.initial_guess": "coupled.initial_guess_s",
    "bvp.solve": "bvp.solve_s",
    "bvp.splu": "bvp.splu_s",
    "beta.compute_beta": "beta.compute_beta_s",
    "serialize.write": "serialize.write_s",
}

# counters reported as they are, with their units
COUNTERS = {
    "ivp.calls": "count",
    "ivp.rhs_evals": "count",
    "ivp.steps": "count",
    "bvp.rhs_evals": "count",
    "bvp.splu_calls": "count",
    "bvp.newton_iters": "count",
    "bvp.mesh_sweeps": "count",
    "bvp.mesh_nodes_max": "count",
    "serialize.bytes": "B",
    "serialize.rows": "count",
}

_SERIALIZE_WRITERS = (
    "write_profile_csv",
    "write_aux_csv",
    "write_point_csv",
    "write_beta_table_csv",
    "write_manifest",
)


class Tracer:
    """Span self times and counters of one traced invocation."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._child_s: list[float] = []

    def span(self, name, fn, on_call=None, on_return=None):
        """Wrap ``fn`` so each call records a span named ``name``."""

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                children = self._child_s.pop()
                self.self_s[name] += dur - children
                if self._child_s:
                    self._child_s[-1] += dur
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return traced

    def counting(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks at layer boundaries ------------------------------------------

    def _ivp_call(self, args, kwargs):
        problem = args[0]
        problem.rhs = self.counting("ivp.rhs_evals", problem.rhs)
        self.counts["ivp.calls"] += 1

    def _ivp_return(self, traj, args, kwargs):
        self.counts["ivp.steps"] += len(traj.t) - 1

    def _bvp_call(self, args, kwargs):
        problem = args[0]
        problem.rhs = self.counting("bvp.rhs_evals", problem.rhs)

    def _bvp_return(self, sol, args, kwargs):
        self.counts["bvp.newton_iters"] += sol.newton_iters
        self.counts["bvp.mesh_sweeps"] += sol.mesh_iterations
        self.counts["bvp.mesh_nodes_max"] = max(
            self.counts["bvp.mesh_nodes_max"], sol.mesh.size
        )

    def _splu_call(self, args, kwargs):
        self.counts["bvp.splu_calls"] += 1

    def _coupled_call(self, args, kwargs):
        self.counts["coupled.calls"] += 1

    def _written(self, result, args, kwargs):
        self.counts["serialize.bytes"] += os.path.getsize(args[0])

    def _beta_table_rows(self, args, kwargs):
        self.counts["serialize.rows"] += len(args[1].methods)

    def _table_rows(self, args, kwargs):
        self.counts["serialize.rows"] += len(args[3][0])

    def patches(self):
        """(module name, attribute, replacement) for every traced binding."""
        mods = sys.modules
        out = []

        def at(modname, attr, name, **hooks):
            fn = getattr(mods[modname], attr)
            out.append((modname, attr, self.span(name, fn, **hooks)))

        for m in ("shockbeta.cli",):
            at(m, "build_model", "config.build_model")
        for m in ("shockbeta.cli", "shockbeta.beta"):
            at(m, "solve_profile", "profile.solve_profile")
            at(m, "solve_auxiliary_if", "integrating_factor.solve_auxiliary_if")
            at(m, "compute_beta", "beta.compute_beta")
        for m in ("shockbeta.cli", "shockbeta.beta", "shockbeta.coupled"):
            at(m, "solve_coupled", "coupled.solve_coupled", on_call=self._coupled_call)
        for m in ("shockbeta.profile", "shockbeta.coupled"):
            at(m, "ivp_solve", "ivp.solve",
               on_call=self._ivp_call, on_return=self._ivp_return)
        # ``shockbeta.integrating_factor`` is shadowed by the function of that
        # name re-exported from the package, so the submodule is looked up in
        # ``sys.modules``.
        at("shockbeta.integrating_factor", "solve_v_if", "integrating_factor.solve_v_if")
        at("shockbeta.coupled", "initial_guess", "coupled.initial_guess")
        at("shockbeta.coupled", "bvp_solve", "bvp.solve",
           on_call=self._bvp_call, on_return=self._bvp_return)
        at("shockbeta.numerics.bvp", "splu", "bvp.splu", on_call=self._splu_call)
        for attr in _SERIALIZE_WRITERS:
            hooks = {"on_return": self._written}
            if attr == "write_beta_table_csv":
                hooks["on_call"] = self._beta_table_rows
            at("shockbeta.serialize", attr, "serialize.write", **hooks)
        out.append((
            "shockbeta.serialize", "_write_table",
            _passthrough(self._table_rows, mods["shockbeta.serialize"]._write_table),
        ))
        return out

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the package's functions on exit."""
        saved = []
        try:
            for modname, attr, wrapper in self.patches():
                mod = sys.modules[modname]
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def _passthrough(hook, fn):
    def hooked(*args, **kwargs):
        hook(args, kwargs)
        return fn(*args, **kwargs)

    return hooked
