"""Command-line surface: generate graphs, decompose, compute indices, bench.

Every command that computes an index reaches its routes through one runner,
:func:`~twindex.reference.run_route`: ``index`` prints its record, a ``bench``
CSV row is the fastest of ``--reps`` records and the routes' values must pass
:func:`~twindex.reference.agree`, and ``verify-paper`` reads
:func:`~twindex.reference.cross_check` on each reference row. This module runs
no route itself; ``--method closed_form`` builds no graph.

Exit codes: 0 success, 1 computation error (disconnected input, caps
exceeded, unsupported ring, routes that disagree, or memory that runs out
past the caps), 2 usage error (bad flags or malformed specs), 3
reference-value verification failure, 130 interrupted (Ctrl-C). Each error
is one ``twindex: ...`` line on stderr, never a traceback, and it starts a
line of its own after an unfinished progress line. A library warning, such
as the empty zero-divisor graph of a field, is one ``twindex: warning: ...``
line and leaves the exit code as it is.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

from .errors import BadParameter, ParseError, RouteDisagreement, TwindexError
from .generators import family_graph
from .graph import GRAPH_FORMATS, Graph, parse_graph, render_graph
from .reference import REFERENCE_CHECKS, RunRecord, agree, cross_check, run_route
from .twins import twin_partition

PROGRESS_THRESHOLD = 2000


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


def _input_graph(args, build: bool = True) -> tuple[Graph | None, str]:
    """The input graph and its name; ``build=False`` checks and names it only."""
    family, infile = getattr(args, "family", None), getattr(args, "infile", None)
    if family and infile:
        raise BadParameter("give either --family or --in, not both")
    if not (family or infile):
        raise BadParameter("an input graph is required: --family or --in")
    if not build:
        return None, family or infile
    if family:
        return family_graph(family), family
    text = sys.stdin.buffer.read() if infile == "-" else Path(infile).read_bytes()
    return parse_graph(text, args.format), infile


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


@contextmanager
def _progress(unit: str):
    """Yield a callback that reports ``done/total unit`` on stderr for long runs.

    A line left unfinished, by a run that raised, is ended on exit, so that
    the error line starts a line of its own.
    """
    line_open = False

    def report(done: int, total: int) -> None:
        nonlocal line_open
        if total >= PROGRESS_THRESHOLD:
            line_open = done != total
            sys.stderr.write(f"\r{done}/{total} {unit}")
            sys.stderr.write("" if line_open else "\n")
            sys.stderr.flush()

    try:
        yield report
    finally:
        if line_open:
            sys.stderr.write("\n")


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
                    "representative": g.labels[cls[0]],
                    "members": [g.labels[v] for v in cls],
                }
                for cls, kind in zip(d.classes, d.kinds)
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
    g, source = _input_graph(args, build=args.method != "closed_form")
    # The naive route counts m-subsets of G; the reduced one, class supports of H.
    unit = "class supports" if args.method == "reduced" else "subsets"
    with _progress(unit) as progress:
        record = run_route(
            args.method, args.m, g, args.family, source=source, command=argv_echo,
            progress=None if args.json else progress,
        )
    sys.stdout.write((record.to_json() if args.json else record.value) + "\n")
    return 0


def cmd_bench(args, argv_echo: str) -> int:
    try:
        m_values = [int(s) for s in str(args.m).split(",")]
    except ValueError:
        raise BadParameter(f"bad --m list {args.m!r}") from None
    if args.reps < 1:
        raise BadParameter(f"--reps must be at least 1, got {args.reps}")
    rows: list[tuple[int, RunRecord]] = []
    for family in args.family:
        g = family_graph(family)
        for m in m_values:
            best = {}
            for method in ("naive", "reduced"):
                records = [
                    run_route(method, m, g, family, source=family, command=argv_echo)
                    for _ in range(args.reps)
                ]
                best[method] = min(records, key=lambda r: r.elapsed_ms)
                rows.append((g.n, best[method]))
            agree({method: int(r.value) for method, r in best.items()}, f"{family} m={m}")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["family", "n", "m", "method", "value", "elapsed_ms", "reps"])
    writer.writerows((r.input, n, r.m, r.method, r.value, r.elapsed_ms, args.reps) for n, r in rows)
    _write(args.out, out.getvalue())
    return 0


def cmd_verify(args, argv_echo: str) -> int:
    lines, records = [], []
    for check in REFERENCE_CHECKS:
        start = time.perf_counter()
        try:
            routes = cross_check(check.family, check.m)
        except RouteDisagreement as exc:
            routes = exc.routes
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        passed = set(routes.values()) == {check.expected}
        values = " ".join(f"{route}={value}" for route, value in routes.items())
        lines.append(
            f"{'PASS' if passed else 'FAIL'} {check.name}: "
            f"expected {check.expected}, {values} ({elapsed_ms:.1f} ms)"
        )
        records.append(
            {
                "name": check.name,
                "expected": check.expected,
                **routes,
                "closed_form": routes.get("closed_form"),
                "elapsed_ms": round(elapsed_ms, 3),
                "passed": passed,
            }
        )
    # The star K_{1,n-1} is the complete multipartite graph with parts (1, n-1).
    star_ok, star_line = True, "star closed form sweep (n=4..10, all m)"
    try:
        for n in range(4, 11):
            for m in range(1, n + 1):
                cross_check(f"multipartite:1,{n - 1}", m)
    except RouteDisagreement as exc:
        star_ok, star_line = False, f"{star_line}: {exc}"
    lines.append(f"{'PASS' if star_ok else 'FAIL'} {star_line}")
    records.append({"name": "star closed form sweep (n=4..10)", "passed": star_ok})
    failures = sum(not record["passed"] for record in records)
    if args.json:
        sys.stdout.write(json.dumps({"checks": records, "failures": failures}) + "\n")
    else:
        lines.append(f"{len(records) - failures}/{len(records)} checks passed")
        sys.stdout.write("\n".join(lines) + "\n")
    return 3 if failures else 0


_COMMANDS = {
    "gen": cmd_gen,
    "twins": cmd_twins,
    "index": cmd_index,
    "bench": cmd_bench,
    "verify-paper": cmd_verify,
}


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one ``twindex: warning: ...`` line, with no source location."""
    sys.stderr.write(f"twindex: warning: {message}\n")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    argv_echo = "twindex " + " ".join(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            return _COMMANDS[args.command](args, argv_echo)
    except (BadParameter, ParseError, OSError) as exc:
        sys.stderr.write(f"twindex: {exc}\n")
        return 2
    except TwindexError as exc:
        sys.stderr.write(f"twindex: {exc}\n")
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"twindex: out of memory{detail}\n")
        return 1
    except KeyboardInterrupt:
        sys.stderr.write("twindex: interrupted\n")
        return 130


if __name__ == "__main__":
    sys.exit(main())
