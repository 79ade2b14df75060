"""Spans recorded at the layer boundaries of polyjac, from outside the package.

The tracer wraps public functions and methods of the modules in
``src/polyjac`` without editing them.  A wrapped name is replaced wherever it
is looked up: on its class for methods, and in every ``polyjac`` module
namespace that imported it (``polyjac.cli.integrate``,
``polyjac.stability.lower_to_poly`` and so on), so calls made inside the
package are seen as well as calls made by the benchmark.

Each call records a span: name, start, end, parent span, job id, plus the
time its child spans covered and any per-call counts (iterations, steps,
bytes).  Spans stay in memory; ``write_jsonl`` dumps them when the run ends.
A span's self time is its duration minus the time its direct children cover.
"""

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from polyjac import (
    cli,
    expressions,
    pseudo_jacobian,
    quasi_newton,
    relaxation,
    stability,
    system,
    trace,
)


def _method_of_integrate(args, kwargs):
    return kwargs["method"] if "method" in kwargs else args[1]


def _opts(args, kwargs, default_cls):
    opts = kwargs["opts"] if "opts" in kwargs else (args[2] if len(args) > 2 else None)
    return opts or default_cls()


def _cli_command(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    tokens = iter(sys.argv[1:] if argv is None else argv)
    for tok in tokens:
        if tok in ("--seed", "--format", "--out"):
            next(tokens, None)
        elif not tok.startswith("-"):
            return tok.replace("-", "_")
    return "usage"


def _iters(result, args):
    return {"iters": result.iterations}


def _steps(result, args):
    return {"steps": len(result.times) - 1}


def _bytes(result, args):
    return {"bytes": len(result)}


def _coeff_bytes(result, args):
    # Computed from array sizes, whatever arrays the system stores.
    return {"coeff_bytes": sum(v.nbytes for v in vars(args[0]).values()
                               if isinstance(v, np.ndarray))}


# (owner, attribute, span name or namer, per-call counts from the result).
# A namer maps the call's (args, kwargs) to the span name.
def _targets():
    S = system.PolySystem
    return [
        (S, "__post_init__", "system.PolySystem", _coeff_bytes),
        (S, "eval", "system.eval", None),
        (S, "nonlinear_parts", "system.nonlinear_parts", None),
        (S, "jacobian", "system.jacobian", None),
        (S, "linearized_matrix", "system.linearized_matrix", None),
        (system, "load_system_json", "system.load_system_json", None),
        (expressions, "lower_to_poly", "expressions.lower_to_poly", None),
        (expressions, "h_eval", "expressions.h_eval", None),
        (stability, "integrate",
         lambda a, k: "stability.integrate." + _method_of_integrate(a, k), _steps),
        (stability, "step_bound_explicit_euler", "stability.step_bound", None),
        (stability, "step_bound_rk4", "stability.step_bound", None),
        (stability, "burgers_step_bound", "stability.step_bound", None),
        (stability, "is_negative_definite", "stability.is_negative_definite", None),
        (stability, "scan_blowup_threshold", "stability.scan_blowup_threshold", None),
        (relaxation, "iterative_solve",
         lambda a, k: "relaxation.iterative_solve."
         + _opts(a, k, relaxation.IterativeOptions).method, _iters),
        (relaxation, "sweep_once", "relaxation.sweep_once", None),
        (quasi_newton, "qn_solve",
         lambda a, k: "quasi_newton.qn_solve." + _opts(a, k, quasi_newton.QNOptions).variant,
         _iters),
        (quasi_newton, "jacobian_action", "quasi_newton.jacobian_action", None),
        (quasi_newton, "classic_update", "quasi_newton.classic_update", None),
        (quasi_newton, "classic_inverse_update", "quasi_newton.classic_inverse_update", None),
        (quasi_newton, "modified_update", "quasi_newton.modified_update", None),
        (quasi_newton, "modified_inverse_update", "quasi_newton.modified_inverse_update", None),
        (pseudo_jacobian, "decompose", "pseudo_jacobian.decompose", None),
        (pseudo_jacobian, "pj_step_bound_explicit",
         "pseudo_jacobian.pj_step_bound_explicit", None),
        # Trajectory (stability) serialises integrations the same way SolverTrace
        # serialises solves; both are the write side the CLI pays for.
        (trace.SolverTrace, "to_json", "trace.to_json", _bytes),
        (trace.SolverTrace, "to_csv", "trace.to_csv", _bytes),
        (stability.Trajectory, "to_json", "trace.to_json", _bytes),
        (stability.Trajectory, "to_csv", "trace.to_csv", _bytes),
        (cli, "main", lambda a, k: "cli.main." + _cli_command(a, k), None),
    ]


class Tracer:
    """Span recorder; ``install`` patches polyjac, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, job, child_time, counts]
        self.job = None
        self.paused = False
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name, post):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [name if isinstance(name, str) else name(args, kwargs),
                    0.0, 0.0, stack[-1][0] if stack else -1, self.job, 0.0, None]
            spans.append(span)
            stack.append((len(spans) - 1, span))
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1][5] += span[2] - span[1]
            if post is not None:
                span[6] = post(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if (key == "polyjac" or key.startswith("polyjac.")) and m is not None]
        for owner, attr, name, post in _targets():
            orig = owner.__dict__[attr]
            wrapped = self._wrap(orig, name, post)
            places = [owner] if isinstance(owner, type) else [
                m for m in modules if m.__dict__.get(attr) is orig]
            for place in places:
                self._patched.append((place, attr, orig))
                setattr(place, attr, wrapped)

    def uninstall(self):
        for place, attr, orig in reversed(self._patched):
            setattr(place, attr, orig)
        self._patched.clear()

    @contextmanager
    def pause(self):
        """Calls made inside (oracle checks) record no spans."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def metrics(self):
        """Per span name: ``calls``, ``self_s`` and the per-call counts summed.

        ``system.coeff_bytes`` is the largest coefficient footprint of one
        system built; ``.jacobians`` counts ``system.jacobian`` spans under
        each ``qn_solve`` and ``.integrations`` the integrations under a scan.
        """
        out = Counter()
        coeff_bytes = 0
        for name, t0, t1, parent, _job, child, counts in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += t1 - t0 - child
            for key, value in (counts or {}).items():
                if key == "coeff_bytes":
                    coeff_bytes = max(coeff_bytes, value)
                else:
                    out[f"{name}.{key}"] += value
            if name == "system.jacobian":
                solve = self._ancestor(parent, "quasi_newton.qn_solve.")
                if solve is not None:
                    out[f"{solve}.jacobians"] += 1
            elif name.startswith("stability.integrate.") and self._ancestor(
                    parent, "stability.scan_blowup_threshold"):
                out["stability.scan_blowup_threshold.integrations"] += 1
        out["system.coeff_bytes"] = coeff_bytes
        return dict(out)

    def _ancestor(self, idx, prefix):
        while idx >= 0:
            name = self.spans[idx][0]
            if name.startswith(prefix):
                return name
            idx = self.spans[idx][3]
        return None

    def write_jsonl(self, path):
        keys = ("name", "start", "end", "parent", "job", "child_s", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
