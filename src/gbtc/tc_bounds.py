"""Lower and stable bounds on the sequential topological complexity of
unordered particle configurations on a graph.

With n0 vertices of valence >= 4, n1 separating trivalent and n2
non-separating trivalent vertices (m = n0 + n1 + n2 >= 2), any admissible
choice 0 <= ci <= ni with k >= 2(c0 + c2) + 3 c1 certifies

    TC_r >= (r - 2) * min(floor(k/2), m) + 2 (c0 + c1) + c2      (r >= 2),

and TC_r <= r * m holds for k >= 2 m.  When n2 = 0 the two meet: TC_r equals
r * m for all k >= 2 m + n1.  The engine takes the greedy choice, which
maximizes the certified bound (an exchange argument, at ``_best_choice``);
the tests compare it with exhaustive search over all admissible triples.

The bounds read only the counts (n0, n1, n2) and r, k: each function here
takes a ``VertexClassification``, so a caller classifies its graph once.
"""

from __future__ import annotations

from .graph_core import HypothesisError, Record, VertexClassification

# How the homology nonvanishing input of a bound was settled: not checked,
# check abandoned at the generator budget, checked nonzero, checked zero
# (which would contradict the paper).
HOMOLOGY_STATUSES = ("assumed", "budget-exceeded", "verified", "contradicted")


class BoundReport(Record):
    __slots__ = (
        "classification",
        "r",
        "k",
        "choice",
        "lower",
        "upper",
        "stable_value",
        "k0",
        "caveats",
        "homology_status",
    )

    def __init__(
        self,
        classification: VertexClassification,
        r: int,
        k: int | None = None,
        choice: tuple[int, int, int] | None = None,
        lower: int | None = None,
        upper: int | None = None,
        stable_value: int | None = None,
        k0: int | None = None,
        caveats: tuple[str, ...] = (),
        homology_status: str = "assumed",
    ):
        super().__init__(
            classification, r, k, choice, lower, upper, stable_value, k0, caveats, homology_status
        )
        if self.homology_status not in HOMOLOGY_STATUSES:
            raise ValueError(f"unknown homology status {self.homology_status!r}")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")
        if self.choice is not None:
            c0, c1, c2 = self.choice
            cls = self.classification
            if not (0 <= c0 <= cls.n0 and 0 <= c1 <= cls.n1 and 0 <= c2 <= cls.n2):
                raise ValueError("choice exceeds the classification counts")
            if self.k is not None and self.k < 2 * (c0 + c2) + 3 * c1:
                raise ValueError("choice is not admissible at this k")


def _require_bound_hypotheses(cls: VertexClassification) -> None:
    if cls.m < 2:
        raise HypothesisError("connected graph with m >= 2 required (at least two essential vertices)")


def bound_value(r: int, k: int, m: int, choice: tuple[int, int, int]) -> int:
    c0, c1, c2 = choice
    return (r - 2) * min(k // 2, m) + 2 * (c0 + c1) + c2


def _best_choice(cls: VertexClassification, k: int) -> tuple[int, int, int]:
    """The admissible choice with the largest bound at (r, k), ties broken to
    the lexicographically largest triple: the greedy one, c0 as large as k
    allows, then c1, then c2.

    The bound is (r - 2) min(floor(k/2), m) + 2 c0 + 2 c1 + c2, so r only
    shifts it and the choice maximizes 2 c0 + 2 c1 + c2 under the cost
    2 c0 + 3 c1 + 2 c2 <= k.  Take an optimal choice, lexicographically
    largest among the optima, and exchange:
    - If c0 < min(n0, floor(k/2)), then one more c0 fits when the slack
      k - cost is 2 or more (gain 2); else c2 > 0 or c1 > 0, since
      c1 = c2 = 0 would leave slack k - 2 c0 >= 2.  Trading one c2 for a c0
      costs nothing and gains 1; trading one c1 for a c0 frees 1 and gains
      0 but makes the triple lexicographically larger.  Each contradicts
      the choice, so c0 = min(n0, floor(k/2)).
    - With that c0 and R = k - 2 c0, if c1 < min(n1, floor(R/3)), one more
      c1 fits when the slack is 3 or more (gain 2).  Else
      2 c2 >= R - 3 c1 - 2 >= 1, so c2 >= 1: at slack 1 or 2, trading one
      c2 for a c1 gains 1; at slack 0, 2 c2 = R - 3 c1 >= 3 gives c2 >= 2,
      and trading two c2 for a c1 gains 0 with a larger c1.  So
      c1 = min(n1, floor(R/3)).
    - c2 then takes all it can: min(n2, floor((R - 3 c1) / 2)).
    """
    c0 = min(cls.n0, k // 2)
    rest = k - 2 * c0
    c1 = min(cls.n1, rest // 3)
    return (c0, c1, min(cls.n2, (rest - 3 * c1) // 2))


def lower_bound(
    cls: VertexClassification, r: int, k: int, homology_status: str = "assumed"
) -> BoundReport:
    """Best certified lower bound at (r, k), maximized over admissible
    choices; ties break to the lexicographically largest triple.
    ``homology_status`` is one of HOMOLOGY_STATUSES, copied to the report."""
    if r < 1:
        raise ValueError("the motion-planning order r must be at least 1")
    if k < 0:
        raise ValueError("the particle count k must be nonnegative")
    if r < 2:
        raise HypothesisError("the lower bound requires r >= 2")
    _require_bound_hypotheses(cls)

    best = _best_choice(cls, k)
    caveats = []
    if k < 2 * cls.m:
        caveats.append(
            f"upper bound reported outside its asserted range (k >= {2 * cls.m} needed)"
        )
    return BoundReport(
        classification=cls,
        r=r,
        k=k,
        choice=best,
        lower=bound_value(r, k, cls.m, best),
        upper=r * cls.m,
        caveats=tuple(caveats),
        homology_status=homology_status,
    )


def stable_report(cls: VertexClassification, r: int) -> BoundReport:
    """Stable value r * m and stable range start k0 = 2m + (number of
    trivalent vertices), available exactly when there are no non-separating
    trivalent vertices."""
    if r < 1:
        raise ValueError("the motion-planning order r must be at least 1")
    _require_bound_hypotheses(cls)
    if cls.n2 > 0:
        return BoundReport(
            classification=cls,
            r=r,
            caveats=(
                "graph has non-separating trivalent vertices: no stable value is "
                "established (open already for the two-vertex graph with three "
                "parallel edges)",
            ),
        )
    return BoundReport(
        classification=cls,
        r=r,
        stable_value=r * cls.m,
        k0=2 * cls.m + cls.trivalent_total,
    )
