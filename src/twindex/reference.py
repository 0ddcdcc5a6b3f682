"""Reference index values reported in the literature for the built-in families.

Each check recomputes a published Wiener / Steiner-Wiener value with both the
naive oracle, the twin-class reduction and, where the family has one, the
closed form from :func:`closed_form`, the one lookup that ``verify-paper``
and ``index --method closed_form`` read. The methods must always agree with
each other; a disagreement with the recorded literature value is reported as
a (documented) erratum rather than silently absorbed, since the naive oracle
evaluates the definition directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

from .generators import family_graph, multipartite_sizes, star_graph
from .reduced import steiner_wiener_reduced, sw_complete_multipartite
from .steiner import steiner_wiener_naive
from .twins import twin_partition


@dataclass(frozen=True)
class ReferenceCheck:
    name: str
    family: str
    m: int
    expected: int


@dataclass
class CheckResult:
    check: ReferenceCheck
    naive: int
    reduced: int
    closed: int | None
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        values = {self.naive, self.reduced}
        if self.closed is not None:
            values.add(self.closed)
        return values == {self.check.expected}


REFERENCE_CHECKS: tuple[ReferenceCheck, ...] = (
    ReferenceCheck("SW_3 of the power graph of Z6", "power:Z6", 3, 41),
    ReferenceCheck("W of the power graph of D12", "power:D12", 2, 113),
    ReferenceCheck("SW_6 of the power graph of Q8", "power:Q8", 6, 141),
    ReferenceCheck("SW_5 of K_{3,3,3}", "multipartite:3,3,3", 5, 504),
    ReferenceCheck("SW_8 of the ideal-based zero-divisor graph of Z24 with I=(8)", "izdg:Z24:I=(8)", 8, 63),
    ReferenceCheck(
        "SW_4 of the ideal-based zero-divisor graph of Z2[x]/(x^3) x Z2 with I=(0)xZ2",
        "izdg:Z2[x]/(x^3)xZ2:I=((0,1))",
        4,
        46,
    ),
    ReferenceCheck(
        "W of the ideal-based zero-divisor graph of Z6 x Z2 with I=(0)xZ2",
        "izdg:Z6xZ2:I=((0,1))",
        2,
        22,
    ),
    ReferenceCheck("SW_8 of the comaximal ideal graph of Z2 x Z2 x Z4", "comax:Z2xZ2xZ4", 8, 65),
    ReferenceCheck("W of the comaximal ideal graph of Z8 x Z9", "comax:Z8xZ9", 2, 14),
    ReferenceCheck("W of the comaximal ideal graph of Z3 x Z5 x Z9", "comax:Z3xZ5xZ9", 2, 69),
)


def closed_form(family: str, m: int) -> int | None:
    """``SW_m`` of ``family`` from its spec alone, no graph built; ``None`` if none.

    Only ``multipartite:<sizes>`` has one, the paper's corollary
    (:func:`sw_complete_multipartite`), read through ``family_graph``'s parser.
    """
    sizes = multipartite_sizes(family)
    return None if sizes is None else sw_complete_multipartite(sizes, m)


def run_check(check: ReferenceCheck) -> CheckResult:
    start = time.perf_counter()
    g = family_graph(check.family)
    naive = steiner_wiener_naive(g, check.m)
    reduced = steiner_wiener_reduced(twin_partition(g), check.m)
    closed = closed_form(check.family, check.m)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return CheckResult(check, naive, reduced, closed, elapsed_ms)


def run_all_checks() -> list[CheckResult]:
    return [run_check(c) for c in REFERENCE_CHECKS]


def star_index_formula(n: int, m: int) -> int:
    """Closed form for ``SW_m`` of the star ``K_{1, n-1}``.

    ``m * binom(n-1, m) + (m-1) * binom(n-1, m-1)``: subsets avoiding the
    center need to borrow it, subsets through the center form a star tree.
    Algebraically equal to the complete-multipartite closed form with parts
    ``(1, n-1)``.
    """
    return m * comb(n - 1, m) + (m - 1) * comb(n - 1, m - 1)


def verify_star_formula(n_range=range(4, 11)) -> bool:
    """Check the star closed form against the naive oracle for small stars."""
    for n in n_range:
        g = star_graph(n)
        for m in range(2, n):
            if steiner_wiener_naive(g, m) != star_index_formula(n, m):
                return False
    return True
