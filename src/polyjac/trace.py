"""Solver run records shared by the iterative and quasi-Newton solvers."""

from dataclasses import dataclass, field
import json

import numpy as np

__all__ = ["SolverTrace"]


@dataclass
class SolverTrace:
    """Iterate history, residual norms and termination status of one solve.

    status is one of "converged", "max_iter_exceeded", "singular_pivot",
    "diverged", "guard_trip", "singular_jacobian".  "diverged" means an
    iterate had a non-finite entry or left ||U||_inf <= 1e8
    (system.diverged).  "guard_trip" means a rank-one update tripped a guard
    with reinitialisation off; "singular_jacobian" means the exact Jacobian
    at an iterate could not be solved with or inverted.  failure_index
    carries the offending row or iteration for the failure statuses.  jacobians is
    populated only by quasi-Newton solves that retain the per-iteration
    approximation.
    """

    iterates: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    status: str = "max_iter_exceeded"
    failure_index: int = None
    permutation: list = None
    jacobians: list = None

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
        lines = []
        n = len(np.asarray(self.iterates[0]).ravel()) if self.iterates else 0
        header = "iter," + ",".join(f"U{i}" for i in range(n)) + ",residual"
        lines.append(header)
        for k, (u, r) in enumerate(zip(self.iterates, self.residual_norms)):
            row = ",".join(f"{x:.17g}" for x in np.asarray(u).ravel())
            lines.append(f"{k},{row},{r:.17g}")
        return "\n".join(lines) + "\n"
