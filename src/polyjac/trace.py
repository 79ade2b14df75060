"""Solver run records shared by the iterative and quasi-Newton solvers."""

from dataclasses import dataclass, field
import json

import numpy as np

from .system import _integer, _state

__all__ = ["SolverTrace"]


def start_state(U0, n):
    """A solve's start U0 by _state, refused if an entry is not finite."""
    if not np.all(np.isfinite(U := _state(U0, n))):
        raise ValueError("U0 contains non-finite entries")
    return U


def check_stop(tol, max_iter):
    """Raise ValueError unless a solve's stop settings hold: 0 < tol < inf and an integer max_iter >= 0."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if _integer(max_iter, "max_iter") < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter}")


def _csv_format(count):  # count numbers joined by commas, each as %.17g (the bytes of f"{x:.17g}"), one % per row
    return ",".join(["%.17g"] * count)


@dataclass(eq=False)
class SolverTrace:
    """Iterate history, residual norms and termination status of one solve.

    status is one of "converged", "max_iter_exceeded", "singular_pivot",
    "diverged" or "singular_jacobian".  "diverged" means an iterate had a
    non-finite entry or left ||U||_inf <= 1e8 (system.diverged), or its
    residual was not finite; failure_index is then the iteration that
    produced it.  "singular_pivot" carries the row no interchange could fix;
    "singular_jacobian" means the exact Jacobian at an iterate could not be
    solved with or inverted, and carries that iteration.  jacobians is
    populated only by quasi-Newton solves that retain the per-iteration
    approximation.
    """

    iterates: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    status: str = "max_iter_exceeded"
    failure_index: int = None
    permutation: list = None
    jacobians: list = None

    def record(self, U, f, J=None):
        """Append iterate U, ||f||_inf and (when jacobians are kept) J; returns the norm."""
        res = float(np.abs(f).max())
        self.iterates.append(U.copy())
        self.residual_norms.append(res)
        if self.jacobians is not None:
            self.jacobians.append(J.copy())
        return res

    def end(self, status, failure_index=None):
        """Set the terminal status (and failure index); returns the trace."""
        self.status = status
        self.failure_index = failure_index
        return self

    @property
    def iterations(self):
        return len(self.residual_norms)

    @property
    def solution(self):
        return self.iterates[-1] if self.iterates else None

    def to_json(self):
        return json.dumps(
            {
                "status": self.status,
                "failure_index": self.failure_index,
                "iterations": self.iterations,
                "residual_norms": [float(r) for r in self.residual_norms],
                "iterates": [np.asarray(u).tolist() for u in self.iterates],
                "permutation": self.permutation,
            }
        )

    def to_csv(self):
        n = np.asarray(self.iterates[0]).size if self.iterates else 0
        lines = ["iter," + ",".join(f"U{i}" for i in range(n)) + ",residual"]
        row = "%d," + _csv_format(n + 1)
        for k, (u, r) in enumerate(zip(self.iterates, self.residual_norms)):
            lines.append(row % (k, *np.asarray(u).ravel().tolist(), r))
        return "\n".join(lines) + "\n"
