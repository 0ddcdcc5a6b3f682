"""Reference index values reported in the literature, the route runner and
the route cross-check.

:func:`run_route` is the one function that maps a route name to its code and
times it into a :class:`RunRecord`; ``index``, ``bench`` and
:func:`cross_check` all call it. :func:`cross_check` runs every route that
applies to a family spec, in this order:

- ``naive``: the literal sum over every m-subset, when ``C(n, m)`` is at most
  ``NAIVE_CAP`` (``index`` and ``bench`` run it uncapped);
- ``wiener``: the all-pairs distance sum, at ``m = 2`` (no CLI option runs it);
- ``reduced``: the twin-class reduction, whose work counts the record carries;
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

import json
import time
from dataclasses import asdict, dataclass
from math import comb

from .errors import BadParameter, RouteDisagreement
from .generators import family_graph, multipartite_sizes
from .graph import Graph
from .reduced import steiner_wiener_reduced_with_stats, sw_complete_multipartite
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
class RunRecord:
    """One index computation, as echoed by ``index --json``."""

    command: str
    input: str
    method: str
    m: int
    value: str
    elapsed_ms: float
    num_classes: int | None = None
    num_profiles: int | None = None
    dh_cache_hits: int | None = None

    def to_json(self) -> str:
        record = {k: v for k, v in asdict(self).items() if v is not None}
        return json.dumps(record)


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


def run_route(
    method: str, m: int, g: Graph | None, family: str | None, *, source: str, command: str,
    progress=None,
) -> RunRecord:
    """Run and time one route to ``SW_m``; the record ``index --json`` prints.

    ``closed_form`` reads the family spec and needs no graph; the other
    routes run on ``g``. ``source`` names the input in the record.
    """
    start = time.perf_counter()
    extras = {}
    if method == "closed_form":
        value = closed_form(family, m) if family else None
        if value is None:
            raise BadParameter("--method closed_form needs --family multipartite:<sizes>")
    elif method == "naive":
        value = steiner_wiener_naive(g, m, progress=progress)
    elif method == "wiener":
        if m != 2:
            raise BadParameter(f"the wiener route computes SW_2 only, not m={m}")
        value = wiener_index(g)
    elif method == "reduced":
        value, stats = steiner_wiener_reduced_with_stats(twin_partition(g), m, progress=progress)
        extras = asdict(stats)
    else:
        raise BadParameter(f"unknown route {method!r}")
    elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3)
    return RunRecord(command, source, method, m, str(value), elapsed_ms, **extras)


def cross_check(family: str, m: int) -> dict[str, int]:
    """``SW_m`` of ``family`` by every applicable route, checked by :func:`agree`."""
    g = family_graph(family)
    applies = {"naive": comb(g.n, m) <= NAIVE_CAP, "wiener": m == 2, "reduced": True}
    applies["closed_form"] = multipartite_sizes(family) is not None
    routes = {
        method: int(run_route(method, m, g, family, source=family, command="cross_check").value)
        for method, runs in applies.items() if runs
    }
    agree(routes, f"{family} m={m}")
    return routes
