"""Reference index values reported in the literature, and the route cross-check.

:func:`cross_check` computes ``SW_m`` of a family spec by every route that
applies, in a fixed order:

- ``naive``: the literal sum over every m-subset, when ``C(n, m)`` is at most
  ``NAIVE_CAP``;
- ``wiener``: the all-pairs distance sum, at ``m = 2``;
- ``reduced``: the twin-class reduction;
- ``closed_form``: the paper's corollary, read off ``multipartite:`` specs by
  :func:`closed_form` with no graph built.

:func:`agree` is the one rule for route agreement: every route must give the
same value, or it raises :class:`RouteDisagreement` (exit 1) carrying all of
them. ``verify-paper`` checks each :data:`REFERENCE_CHECKS` row this way; a
row fails when the routes disagree with each other or with the recorded
literature value, which is then reported as an erratum rather than silently
absorbed, since the naive oracle evaluates the definition directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

from .errors import RouteDisagreement
from .generators import family_graph, multipartite_sizes
from .reduced import steiner_wiener_reduced, sw_complete_multipartite
from .steiner import steiner_wiener_naive, wiener_index
from .twins import twin_partition

# Largest number of m-subsets the naive route enumerates in a cross-check.
NAIVE_CAP = 300_000


@dataclass(frozen=True)
class ReferenceCheck:
    name: str
    family: str
    m: int
    expected: int


@dataclass
class CheckResult:
    check: ReferenceCheck
    routes: dict[str, int]
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return set(self.routes.values()) == {self.check.expected}


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


def agree(routes: dict[str, int], where: str) -> int:
    """The one value every route in ``routes`` gave; raise if they differ."""
    values = set(routes.values())
    if len(values) != 1:
        raise RouteDisagreement(routes, where)
    return values.pop()


def cross_check(family: str, m: int) -> dict[str, int]:
    """``SW_m`` of ``family`` by every applicable route, checked by :func:`agree`."""
    g = family_graph(family)
    routes = {}
    if comb(g.n, m) <= NAIVE_CAP:
        routes["naive"] = steiner_wiener_naive(g, m)
    if m == 2:
        routes["wiener"] = wiener_index(g)
    routes["reduced"] = steiner_wiener_reduced(twin_partition(g), m)
    closed = closed_form(family, m)
    if closed is not None:
        routes["closed_form"] = closed
    agree(routes, f"{family} m={m}")
    return routes


def run_check(check: ReferenceCheck) -> CheckResult:
    start = time.perf_counter()
    try:
        routes = cross_check(check.family, check.m)
    except RouteDisagreement as exc:
        routes = exc.routes
    return CheckResult(check, routes, (time.perf_counter() - start) * 1000.0)


def run_all_checks() -> list[CheckResult]:
    return [run_check(c) for c in REFERENCE_CHECKS]
