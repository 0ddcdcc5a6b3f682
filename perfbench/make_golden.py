#!/usr/bin/env python3
"""Recompute ``golden.json``, the expected answers of the paper-families pool.

    python3 perfbench/make_golden.py

Each value comes from the reduced route, the way a query computes it. It is
cross-checked against ``wiener_index`` at m=2 and against the naive oracle
wherever ``binom(n, m)`` is at most ``NAIVE_CAP``; a disagreement aborts
without writing. ``seconds`` is the query time measured here; it is recorded
to show why each pair belongs to the pool and is not read by the benchmark.
"""

from __future__ import annotations

import json
import sys
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from twindex.generators import family_graph  # noqa: E402
from twindex.reduced import steiner_wiener_reduced  # noqa: E402
from twindex.steiner import steiner_wiener_naive, wiener_index  # noqa: E402
from twindex.twins import twin_partition  # noqa: E402
from workloads import GOLDEN_PATH, paper_pool  # noqa: E402

NAIVE_CAP = 300_000


def golden_row(spec: str, m: int) -> dict:
    start = time.perf_counter()
    g = family_graph(spec)
    d = twin_partition(g)
    value = steiner_wiener_reduced(d, m)
    seconds = time.perf_counter() - start
    checked = []
    if m == 2:
        if wiener_index(g) != value:
            raise SystemExit(f"{spec} m={m}: reduced {value} != wiener_index")
        checked.append("wiener_index")
    if comb(g.n, m) <= NAIVE_CAP:
        if steiner_wiener_naive(g, m) != value:
            raise SystemExit(f"{spec} m={m}: reduced {value} != naive")
        checked.append("naive")
    return {
        "spec": spec, "m": m, "n": g.n, "k": d.k, "value": value,
        "seconds": round(seconds, 3), "checked_against": checked,
    }


def main() -> int:
    rows = []
    for spec, m in paper_pool():
        rows.append(golden_row(spec, m))
        print(json.dumps(rows[-1]), flush=True)
    GOLDEN_PATH.write_text(json.dumps({"rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
