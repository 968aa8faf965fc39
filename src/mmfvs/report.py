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
    """Outcome plus search statistics for one solver run.

    `outcome` is "yes" or "no"; a "yes" always carries a re-verified
    Solution.  `reductions_fired` counts rule applications by rule name and
    `extras` holds solver-specific audit counters.
    """

    outcome: str
    solution: Solution | None
    nodes_explored: int
    reductions_fired: dict[str, int]
    max_depth: int
    wall_time: float
    extras: dict[str, object] = field(default_factory=dict)

    @property
    def is_yes(self) -> bool:
        return self.outcome == "yes"
