"""Result containers shared by the solvers, and `certify`, which builds every certificate."""

from __future__ import annotations

from dataclasses import dataclass, field

from mmfvs.graph import Graph
from mmfvs.verify import Certificate, VerificationError, is_minimal_fvs


@dataclass(frozen=True)
class Solution:
    """A verified minimal feedback vertex set with its private-cycle witnesses."""

    vertices: frozenset[int]
    certificate: Certificate

    def __len__(self) -> int:
        return len(self.vertices)


def certify(g: Graph, s: frozenset[int], what: str) -> Solution:
    """s with its certificate on g; raises `VerificationError` if s is not a minimal fvs of g."""
    certificate = is_minimal_fvs(g, s)
    if certificate is None:
        raise VerificationError(f"{what} is not a minimal fvs")
    return Solution(s, certificate)


@dataclass
class SolveReport:
    """Answer plus search statistics for one solver run.

    The answer is `solution`: `outcome` reads "yes" exactly when it holds a
    re-verified Solution and "no" when it is None, so a "yes" without a
    Solution cannot be built.  `reductions_fired` counts rule applications
    by rule name and `extras` holds solver-specific audit counters; the
    search counters default to zero for solvers that keep none.
    """

    solution: Solution | None
    wall_time: float
    nodes_explored: int = 0
    reductions_fired: dict[str, int] = field(default_factory=dict)
    max_depth: int = 0
    extras: dict[str, object] = field(default_factory=dict)

    @property
    def outcome(self) -> str:
        return "no" if self.solution is None else "yes"

    @property
    def is_yes(self) -> bool:
        return self.solution is not None
