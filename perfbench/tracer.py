"""Outside-in tracing of hjsys: wrap each layer's public functions.

The package is not modified.  ``install`` replaces every binding of a traced
function (the defining module, every hjsys module that imported it by name,
and the package namespace) with a wrapper, so calls made through
``from .grid import diff_arrays`` are seen too.  Methods are wrapped on
their class.

Calls at or above ``solve`` granularity are kept as full spans
(id, parent id, name, start, end).  Hot inner boundaries (one evolution step,
one Hamiltonian evaluation, one difference quotient, one policy lookup, ...)
run hundreds of thousands of times, so they only feed per-parent counters of
calls, busy time and self time.  Everything stays in memory until the worker
writes its result.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

# (layer, module, attribute, hot); an attribute "Cls.meth" is a method.
TARGETS = [
    ("catalog", "hjsys.catalog", "build_hamiltonian", False),
    ("catalog", "hjsys.catalog", "builtin_coupling", False),
    ("catalog", "hjsys.catalog", "fourier_function", True),
    ("catalog", "hjsys.catalog", "direction_profile", False),
    ("catalog", "hjsys.catalog", "vector_field", False),
    ("catalog", "hjsys.catalog", "list_builtin", False),
    ("hamiltonians", "hjsys.hamiltonians", "Hamiltonian.__call__", True),
    ("hamiltonians", "hjsys.hamiltonians", "make_quadratic_eikonal", False),
    ("hamiltonians", "hjsys.hamiltonians", "make_linear_eikonal", False),
    ("hamiltonians", "hjsys.hamiltonians", "make_nonconvex_example", False),
    ("hamiltonians", "hjsys.hamiltonians", "lax_friedrichs_flux", True),
    ("hamiltonians", "hjsys.hamiltonians", "numerical_flux", True),
    ("hamiltonians", "hjsys.hamiltonians", "grad_p", True),
    ("hamiltonians", "hjsys.hamiltonians", "sampled_grad_sup", False),
    ("hamiltonians", "hjsys.hamiltonians", "check_assumption", False),
    ("grid", "hjsys.grid", "sample", True),
    ("grid", "hjsys.grid", "diff_arrays", True),
    ("grid", "hjsys.grid", "one_sided_diffs", True),
    ("grid", "hjsys.grid", "interp_periodic", True),
    ("grid", "hjsys.grid", "sup_norm", True),
    ("grid", "hjsys.grid", "osc", True),
    ("grid", "hjsys.grid", "linf_distance", True),
    ("grid", "hjsys.grid", "save_binary", True),
    ("grid", "hjsys.grid", "load_binary", True),
    ("grid", "hjsys.grid", "save_csv", True),
    ("grid", "hjsys.grid", "load_csv", True),
    ("coupling", "hjsys.coupling", "validate_monotone", False),
    ("coupling", "hjsys.coupling", "is_irreducible", False),
    ("coupling", "hjsys.coupling", "irreducible_bruteforce", False),
    ("coupling", "hjsys.coupling", "pairwise_nonzero", False),
    ("coupling", "hjsys.coupling", "perron_vector", False),
    ("coupling", "hjsys.coupling", "constant_solution", False),
    ("coupling", "hjsys.coupling", "ergodic_constant_formula", False),
    ("coupling", "hjsys.coupling", "delta_rate", False),
    ("coupling", "hjsys.coupling", "analyze", False),
    ("evolution", "hjsys.evolution", "solve", False),
    ("evolution", "hjsys.evolution", "step", True),
    ("evolution", "hjsys.evolution", "cfl_dt", False),
    ("evolution", "hjsys.evolution", "comparison_check", False),
    ("evolution", "hjsys.evolution", "lipschitz_check", False),
    ("ergodic", "hjsys.ergodic", "estimate_ergodic_constant", False),
    ("ergodic", "hjsys.ergodic", "solve_discounted", False),
    ("ergodic", "hjsys.ergodic", "long_time_constant", False),
    ("diagnostics", "hjsys.diagnostics", "shift_trajectory", False),
    ("diagnostics", "hjsys.diagnostics", "exp_transform", False),
    ("diagnostics", "hjsys.diagnostics", "undo_exp_transform", False),
    ("diagnostics", "hjsys.diagnostics", "p_eta", True),
    ("diagnostics", "hjsys.diagnostics", "p_eta_table", False),
    ("diagnostics", "hjsys.diagnostics", "component_gap_decay", False),
    ("diagnostics", "hjsys.diagnostics", "monotone_tail", False),
    ("diagnostics", "hjsys.diagnostics", "profile_distances", False),
    ("diagnostics", "hjsys.diagnostics", "evaluate_on_set", False),
    ("diagnostics", "hjsys.diagnostics", "build_report", False),
    ("switching", "hjsys.switching", "estimate_value", False),
    ("switching", "hjsys.switching", "simulate_trajectory", False),
    ("switching", "hjsys.switching", "hamiltonian_from_spec", False),
    ("switching", "hjsys.switching", "coupling_from_spec", False),
    ("switching", "hjsys.switching", "GreedyGradientPolicy.__init__", False),
    ("switching", "hjsys.switching", "GreedyGradientPolicy.action_indices", True),
    ("switching", "hjsys.switching", "ConstantPolicy.action_indices", True),
    ("suites", "hjsys.suites", "run_suite", False),
    ("cli", "hjsys.cli", "main", False),
]

# Extra busy-time groups besides the layers; a call counts toward a group's
# busy time only when no call of the same group encloses it.
EXTRA_GROUPS = {
    "diagnostics.p_eta": "p_eta",
    "diagnostics.p_eta_table": "p_eta",
}


def _post_solve(tr, args, kwargs, result, dur):
    steps = int(result.meta["steps_total"])
    tr.counters["evolution.steps"] += steps
    tr.counters["evolution.node_updates"] += steps * result.m * result.grid.num_nodes


def _post_solve_discounted(tr, args, kwargs, result, dur):
    info = result[1]
    tr.counters["ergodic.march_steps"] += int(info.steps)
    tr.counters["ergodic.jumps"] += int(info.jumps)
    if any(f[0] == "ergodic.solve_discounted" for f in tr.stack):
        tr.counters["ergodic.coarse_steps"] += int(info.steps)
    else:
        tr.counters["ergodic.top_solves"] += 1
        tr.counters["ergodic.top_solve_s"] += dur


def _post_estimate_value(tr, args, kwargs, result, dur):
    from hjsys.switching import estimate_value  # the wrapper; signature follows __wrapped__

    bound = inspect.signature(estimate_value).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    dt = a["spec"].dt_sim if a["dt_sim"] is None else float(a["dt_sim"])
    n_steps = int(math.ceil(float(a["horizon"]) / dt - 1e-12))
    tr.counters["switching.paths"] += int(result.samples)
    tr.counters["switching.path_steps"] += int(result.samples) * n_steps


def _post_save_binary(tr, args, kwargs, result, dur):
    u = args[0] if args else kwargs["u"]
    tr.counters["grid.write_bytes"] += 8 + 8 * int(u.values.size)


def _post_load_binary(tr, args, kwargs, result, dur):
    tr.counters["grid.read_bytes"] += 8 + 8 * int(result.values.size)


def _post_run_suite(tr, args, kwargs, result, dur):
    for c in result.checks:
        tr.counters["suites.checks"] += 1
        tr.counters["suites.checks_failed"] += 0 if c.passed else 1
        if c.bound != 0 and math.isfinite(c.value):
            gap = c.bound - c.value if c.relation == "<=" else c.value - c.bound
            tr.headrooms.append(gap / abs(c.bound))


def _post_cli_main(tr, args, kwargs, result, dur):
    if result != 0:
        tr.counters["cli.nonzero_exits"] += 1


POST = {
    "evolution.solve": _post_solve,
    "ergodic.solve_discounted": _post_solve_discounted,
    "switching.estimate_value": _post_estimate_value,
    "grid.save_binary": _post_save_binary,
    "grid.load_binary": _post_load_binary,
    "suites.run_suite": _post_run_suite,
    "cli.main": _post_cli_main,
}


class Tracer:
    """Span and counter store for one worker process."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.stack = []  # frames: [name, child_seconds, span_id]
        self.fn = {}  # name -> [calls, inclusive_s, self_s]
        self.groups = {}  # group -> [outermost_calls, busy_s]
        self.depth = Counter()
        self.hot = {}  # "parent>name" -> [calls, inclusive_s, self_s]
        self.spans = []  # [id, parent_id, name, start_s, end_s]
        self.counters = Counter()
        self.headrooms = []

    def wrap(self, fn, name, layer, hot):
        groups = (layer,) + ((EXTRA_GROUPS[name],) if name in EXTRA_GROUPS else ())
        post = POST.get(name)
        tracer = self
        stack, depth, clock = self.stack, self.depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = [g for g in groups if depth[g] == 0]
            for g in groups:
                depth[g] += 1
            span_id = None if hot else len(tracer.spans)
            if span_id is not None:
                tracer.spans.append(None)  # reserve the id; filled on exit
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                for g in groups:
                    depth[g] -= 1
                tracer._record(frame, start, end, outer, hot)
            if post is not None:
                post(tracer, args, kwargs, result, end - start)
            return result

        return wrapper

    def _record(self, frame, start, end, outer, hot):
        name, child, span_id = frame
        dur = end - start
        own = dur - child
        if self.stack:
            self.stack[-1][1] += dur
        st = self.fn.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += own
        for g in outer:
            gs = self.groups.setdefault(g, [0, 0.0])
            gs[0] += 1
            gs[1] += dur
        if hot:
            parent = self.stack[-1][0] if self.stack else "-"
            hs = self.hot.setdefault(f"{parent}>{name}", [0, 0.0, 0.0])
            hs[0] += 1
            hs[1] += dur
            hs[2] += own
        else:
            parent_id = next(
                (f[2] for f in reversed(self.stack) if f[2] is not None), None
            )
            self.spans[span_id] = [
                span_id, parent_id, name, start - self.t0, end - self.t0
            ]

    def summary(self) -> dict:
        return {
            "fn": self.fn,
            "groups": self.groups,
            "hot": self.hot,
            "counters": dict(self.counters),
            "min_headroom": min(self.headrooms) if self.headrooms else None,
            "spans": self.spans,
        }


def install(tracer: Tracer) -> None:
    """Rebind every traced hjsys function to a wrapper feeding ``tracer``."""
    import hjsys  # noqa: F401  (loads every submodule)

    modules = [m for k, m in sys.modules.items() if k == "hjsys" or k.startswith("hjsys.")]
    for layer, modname, attr, hot in TARGETS:
        mod = importlib.import_module(modname)
        name = f"{layer}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], name, layer, hot))
            continue
        original = getattr(mod, attr)
        wrapper = tracer.wrap(original, name, layer, hot)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)


def layer_metrics(summary: dict, wall_s: float, artifact_bytes: int) -> dict:
    """Per-layer metrics of one traced instance (trace.overhead_s excluded)."""
    fn, groups, c = summary["fn"], summary["groups"], Counter(summary["counters"])

    def calls(name):
        return fn.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return fn.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return fn.get(name, [0, 0.0, 0.0])[2]

    def group(g):
        return groups.get(g, [0, 0.0])

    def ratio(a, b):
        return a / b if b else 0.0

    lookups = ("switching.GreedyGradientPolicy.action_indices",
               "switching.ConstantPolicy.action_indices")
    builds = ("hamiltonians.make_quadratic_eikonal", "hamiltonians.make_linear_eikonal",
              "hamiltonians.make_nonconvex_example")
    march = c["ergodic.march_steps"]
    return {
        "evolution.solve_calls": calls("evolution.solve"),
        "evolution.steps": c["evolution.steps"],
        "evolution.solve_s": incl("evolution.solve"),
        "evolution.step_us": 1e6 * ratio(incl("evolution.step"), calls("evolution.step")),
        "evolution.step_self_s": own("evolution.step"),
        "evolution.node_updates": c["evolution.node_updates"],
        "evolution.node_updates_per_s": ratio(
            c["evolution.node_updates"], incl("evolution.solve")
        ),
        "hamiltonians.eval_calls": calls("hamiltonians.Hamiltonian.__call__"),
        "hamiltonians.eval_s": incl("hamiltonians.Hamiltonian.__call__"),
        "hamiltonians.eval_us": 1e6 * ratio(
            incl("hamiltonians.Hamiltonian.__call__"),
            calls("hamiltonians.Hamiltonian.__call__"),
        ),
        "hamiltonians.build_s": sum(incl(b) for b in builds),
        "grid.diff_calls": calls("grid.diff_arrays"),
        "grid.diff_s": incl("grid.diff_arrays"),
        "grid.write_bytes": c["grid.write_bytes"],
        "grid.write_s": incl("grid.save_binary"),
        "grid.read_bytes": c["grid.read_bytes"],
        "grid.read_s": incl("grid.load_binary"),
        "ergodic.estimate_s": incl("ergodic.estimate_ergodic_constant"),
        "ergodic.discount_solves": calls("ergodic.solve_discounted"),
        "ergodic.march_steps": march,
        "ergodic.fine_step_share": ratio(march - c["ergodic.coarse_steps"], march),
        "ergodic.jumps": c["ergodic.jumps"],
        "ergodic.s_per_lambda": ratio(c["ergodic.top_solve_s"], c["ergodic.top_solves"]),
        "ergodic.drift_fit_s": incl("ergodic.long_time_constant"),
        "switching.estimate_calls": calls("switching.estimate_value"),
        "switching.estimate_s": incl("switching.estimate_value"),
        "switching.paths": c["switching.paths"],
        "switching.path_steps": c["switching.path_steps"],
        "switching.paths_per_s": ratio(
            c["switching.paths"], incl("switching.estimate_value")
        ),
        "switching.lookup_calls": sum(calls(n) for n in lookups),
        "switching.lookup_s": sum(incl(n) for n in lookups),
        "switching.policy_build_s": incl("switching.GreedyGradientPolicy.__init__"),
        "switching.ham_build_s": incl("switching.hamiltonian_from_spec"),
        "diagnostics.calls": group("diagnostics")[0],
        "diagnostics.s": group("diagnostics")[1],
        "diagnostics.p_eta_s": group("p_eta")[1],
        "catalog.build_calls": group("catalog")[0],
        "catalog.build_s": group("catalog")[1],
        "coupling.calls": group("coupling")[0],
        "coupling.s": group("coupling")[1],
        "suites.checks": c["suites.checks"],
        "suites.checks_failed": c["suites.checks_failed"],
        "suites.min_headroom": summary["min_headroom"] or 0.0,
        "cli.calls": calls("cli.main"),
        "cli.s": incl("cli.main"),
        "cli.nonzero_exits": c["cli.nonzero_exits"],
        "cli.artifact_bytes": artifact_bytes,
        "trace.wall_s": wall_s,
    }
