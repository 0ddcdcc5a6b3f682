"""Command-line surface: generate graphs, decompose, compute indices, bench.

Exit codes: 0 success, 1 computation error (disconnected input, caps
exceeded, unsupported ring), 2 usage error (bad flags or malformed specs),
3 reference-value verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass

from .errors import BadParameter, ParseError, TwindexError
from .generators import family_graph
from .graph import GRAPH_FORMATS, Graph, parse_graph, render_graph
from .reduced import steiner_wiener_reduced_with_stats, sw_complete_multipartite
from .reference import run_all_checks, verify_star_formula
from .steiner import steiner_wiener_naive
from .twins import twin_partition

PROGRESS_THRESHOLD = 2000


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twindex",
        description=(
            "Twin-class decomposition and Wiener / m-Steiner Wiener indices "
            "of finite graphs, with algebraic graph generators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--family", help="family spec, e.g. power:Z6 or comax:Z2xZ2xZ4")
        p.add_argument("--in", dest="infile", help="read a graph from a file ('-' for stdin)")
        p.add_argument(
            "--format",
            choices=("edgelist", "json"),
            default="edgelist",
            help="parse format for --in (default: edgelist)",
        )

    gen = sub.add_parser("gen", help="emit a graph from a family spec")
    gen.add_argument("--family", required=True)
    gen.add_argument("--format", choices=GRAPH_FORMATS, default="edgelist")
    gen.add_argument("--out", default="-", help="output path ('-' for stdout)")

    twins = sub.add_parser("twins", help="print the twin-class decomposition")
    add_input(twins)
    twins.add_argument("--json", action="store_true")
    twins.add_argument("--emit-reduced", metavar="PATH", help="also write the reduced graph")
    twins.add_argument("--reduced-format", choices=GRAPH_FORMATS, default="edgelist")

    index = sub.add_parser("index", help="compute the Wiener / m-Steiner Wiener index")
    add_input(index)
    index.add_argument("--m", type=int, default=2, help="subset size (default 2 = Wiener)")
    index.add_argument(
        "--method", choices=("naive", "reduced", "closed_form"), default="reduced"
    )
    index.add_argument("--json", action="store_true")

    bench = sub.add_parser("bench", help="time naive vs reduced over a family sweep")
    bench.add_argument("--family", action="append", required=True)
    bench.add_argument("--m", default="2", help="comma-separated subset sizes")
    bench.add_argument("--reps", type=int, default=3, help="repetitions (min is kept)")
    bench.add_argument("--out", default="-")

    verify = sub.add_parser(
        "verify-paper", help="recompute the published reference values and report PASS/FAIL"
    )
    verify.add_argument("--json", action="store_true")

    return parser


def _input_graph(args) -> tuple[Graph, str]:
    if getattr(args, "family", None) and getattr(args, "infile", None):
        raise BadParameter("give either --family or --in, not both")
    if getattr(args, "family", None):
        return family_graph(args.family), args.family
    if getattr(args, "infile", None):
        if args.infile == "-":
            text = sys.stdin.read()
        else:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        return parse_graph(text, args.format), args.infile
    raise BadParameter("an input graph is required: --family or --in")


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _progress(done: int, total: int) -> None:
    if total >= PROGRESS_THRESHOLD:
        end = "\n" if done == total else ""
        sys.stderr.write(f"\r{done}/{total} subsets")
        sys.stderr.write(end)
        sys.stderr.flush()


def _multipartite_sizes(family: str | None) -> list[int]:
    if not family or not family.startswith("multipartite:"):
        raise BadParameter("--method closed_form needs --family multipartite:<sizes>")
    return [int(s) for s in family.split(":", 1)[1].split(",")]


def _compute_index(g: Graph, descriptor: str, args, argv_echo: str) -> RunRecord:
    start = time.perf_counter()
    extras: dict[str, int] = {}
    if args.method == "naive":
        progress = _progress if not args.json else None
        value = steiner_wiener_naive(g, args.m, progress=progress)
    elif args.method == "reduced":
        decomposition = twin_partition(g)
        value, stats = steiner_wiener_reduced_with_stats(decomposition, args.m)
        extras = {
            "num_classes": stats.num_classes,
            "num_profiles": stats.num_profiles,
            "dh_cache_hits": stats.dh_cache_hits,
        }
    else:
        sizes = _multipartite_sizes(getattr(args, "family", None))
        value = sw_complete_multipartite(sizes, args.m)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return RunRecord(
        command=argv_echo,
        input=descriptor,
        method=args.method,
        m=args.m,
        value=str(value),
        elapsed_ms=round(elapsed_ms, 3),
        **extras,
    )


def cmd_gen(args, argv_echo: str) -> int:
    g, _ = _input_graph(args)
    _write(args.out, render_graph(g, args.format))
    return 0


def cmd_twins(args, argv_echo: str) -> int:
    g, _ = _input_graph(args)
    d = twin_partition(g)
    if args.json:
        record = {
            "num_classes": d.k,
            "classes": [
                {
                    "kind": kind.value,
                    "representative": g.labels[rep],
                    "members": [g.labels[v] for v in cls],
                }
                for cls, rep, kind in zip(d.classes, d.representatives, d.kinds)
            ],
        }
        sys.stdout.write(json.dumps(record) + "\n")
    else:
        sys.stdout.write(f"{d.k} twin classes\n")
        for i, (cls, kind) in enumerate(zip(d.classes, d.kinds)):
            members = " ".join(g.labels[v] for v in cls)
            sys.stdout.write(f"{i} {kind.value}: {members}\n")
    if args.emit_reduced:
        _write(args.emit_reduced, render_graph(d.reduced, args.reduced_format))
    return 0


def cmd_index(args, argv_echo: str) -> int:
    g, descriptor = _input_graph(args)
    record = _compute_index(g, descriptor, args, argv_echo)
    if args.json:
        sys.stdout.write(record.to_json() + "\n")
    else:
        sys.stdout.write(record.value + "\n")
    return 0


def cmd_bench(args, argv_echo: str) -> int:
    try:
        m_values = [int(s) for s in str(args.m).split(",")]
    except ValueError:
        raise BadParameter(f"bad --m list {args.m!r}") from None
    rows = []
    for family in args.family:
        g = family_graph(family)
        for m in m_values:
            values = {}
            for method in ("naive", "reduced"):
                best = None
                for _ in range(max(1, args.reps)):
                    start = time.perf_counter()
                    if method == "naive":
                        value = steiner_wiener_naive(g, m)
                    else:
                        value = steiner_wiener_reduced_with_stats(twin_partition(g), m)[0]
                    elapsed = (time.perf_counter() - start) * 1000.0
                    best = elapsed if best is None else min(best, elapsed)
                values[method] = value
                rows.append(
                    {
                        "family": family,
                        "n": g.n,
                        "m": m,
                        "method": method,
                        "value": str(value),
                        "elapsed_ms": round(best, 3),
                        "reps": max(1, args.reps),
                    }
                )
            if values["naive"] != values["reduced"]:
                raise TwindexError(
                    f"method disagreement on {family} m={m}: "
                    f"naive={values['naive']} reduced={values['reduced']}"
                )
    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="", encoding="utf-8")
    try:
        writer = csv.DictWriter(
            out, fieldnames=["family", "n", "m", "method", "value", "elapsed_ms", "reps"]
        )
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_verify(args, argv_echo: str) -> int:
    results = run_all_checks()
    star_ok = verify_star_formula()
    failures = 0
    records = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failures += 0 if res.passed else 1
        detail = f"naive={res.naive} reduced={res.reduced}"
        if res.closed is not None:
            detail += f" closed_form={res.closed}"
        line = (
            f"{status} {res.check.name}: expected {res.check.expected}, "
            f"{detail} ({res.elapsed_ms:.1f} ms)"
        )
        records.append(
            {
                "name": res.check.name,
                "expected": res.check.expected,
                "naive": res.naive,
                "reduced": res.reduced,
                "closed_form": res.closed,
                "elapsed_ms": round(res.elapsed_ms, 3),
                "passed": res.passed,
            }
        )
        if not args.json:
            sys.stdout.write(line + "\n")
    star_line = "PASS" if star_ok else "FAIL"
    if not star_ok:
        failures += 1
    records.append({"name": "star closed form sweep (n=4..10)", "passed": star_ok})
    if args.json:
        sys.stdout.write(json.dumps({"checks": records, "failures": failures}) + "\n")
    else:
        sys.stdout.write(f"{star_line} star closed form sweep (n=4..10, all m)\n")
        total = len(records)
        sys.stdout.write(f"{total - failures}/{total} checks passed\n")
    return 3 if failures else 0


_COMMANDS = {
    "gen": cmd_gen,
    "twins": cmd_twins,
    "index": cmd_index,
    "bench": cmd_bench,
    "verify-paper": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    argv_echo = "twindex " + " ".join(argv)
    try:
        return _COMMANDS[args.command](args, argv_echo)
    except (BadParameter, ParseError) as exc:
        sys.stderr.write(f"twindex: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"twindex: {exc}\n")
        return 2
    except TwindexError as exc:
        sys.stderr.write(f"twindex: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
