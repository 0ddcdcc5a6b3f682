"""Command-line behavior: outputs, formats, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twindex
from twindex.cli import PROGRESS_THRESHOLD, main
from twindex.reduced import steiner_wiener_reduced_with_stats
from twindex.reference import cross_check


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def reduced_off_by_one(monkeypatch):
    """The reduced route, patched at the one name the route runner calls, adds 1."""

    def off_by_one(d, m, **options):
        value, stats = steiner_wiener_reduced_with_stats(d, m, **options)
        return value + 1, stats

    monkeypatch.setattr("twindex.reference.steiner_wiener_reduced_with_stats", off_by_one)


class TestGen:
    def test_edgelist(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "path:3")
        assert code == 0
        assert out == "3\n0 1\n1 2\n"

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "wheel:5", "--format", "dot")
        assert code == 0
        assert out.startswith("graph G {")

    def test_to_file(self, capsys, tmp_path):
        target = tmp_path / "g.json"
        code, out, _ = run(capsys, "gen", "--family", "power:Z6", "--format", "json", "--out", str(target))
        assert code == 0 and out == ""
        data = json.loads(target.read_text())
        assert data["n"] == 6
        assert data["labels"] == ["0", "1", "2", "3", "4", "5"]

    def test_bad_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "nosuch:3")
        assert code == 2
        assert "nosuch" in err


class TestTwins:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "twins", "--family", "power:Z6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "3 twin classes"
        assert lines[1] == "0 complete: 0 1 5"
        assert lines[3] == "2 singleton: 3"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "twins", "--family", "power:Q8", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["num_classes"] == 4
        assert record["classes"][0]["members"] == ["1", "a2"]

    def test_emit_reduced(self, capsys, tmp_path):
        target = tmp_path / "h.edgelist"
        code, _, _ = run(
            capsys, "twins", "--family", "power:Z6", "--emit-reduced", str(target)
        )
        assert code == 0
        assert target.read_text() == "3\n0 1\n0 2\n"

    def test_graph_from_file(self, capsys, tmp_path):
        source = tmp_path / "g.txt"
        source.write_text("4\n0 1\n0 2\n0 3\n")
        code, out, _ = run(capsys, "twins", "--in", str(source))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "2 twin classes"
        assert lines[2] == "1 empty: 1 2 3"

    def test_boolean_json_is_parse_error(self, capsys, tmp_path):
        source = tmp_path / "g.json"
        source.write_text('{"n": 2, "edges": [[true, false]]}')
        code, out, _ = run(capsys, "twins", "--in", str(source), "--format", "json")
        assert code == 2
        assert out == ""

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "twins")
        assert code == 2
        assert "--family or --in" in err


class TestIndex:
    def test_reduced_value(self, capsys):
        code, out, _ = run(capsys, "index", "--family", "power:Z6", "--m", "3", "--method", "reduced")
        assert code == 0
        assert out == "41\n"

    def test_naive_value(self, capsys):
        code, out, _ = run(capsys, "index", "--family", "power:D12", "--m", "2", "--method", "naive")
        assert code == 0
        assert out == "113\n"

    def test_json_record_naive(self, capsys):
        code, out, _ = run(
            capsys, "index", "--family", "power:Z6", "--m", "3", "--method", "naive", "--json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["value"] == "41"
        assert record["method"] == "naive"
        assert record["m"] == 3
        assert record["elapsed_ms"] >= 0
        assert "num_profiles" not in record

    def test_json_record_reduced_diagnostics(self, capsys):
        code, out, _ = run(
            capsys, "index", "--family", "power:Z6", "--m", "3", "--method", "reduced", "--json"
        )
        record = json.loads(out)
        assert code == 0
        assert record["value"] == "41"
        assert record["num_classes"] == 3
        assert record["num_profiles"] == 4
        assert record["dh_cache_hits"] == 0

    def test_reduced_progress_counts_class_supports(self, capsys):
        # H has 23 classes, so the count is C(23, 4), not G's C(480, 4) subsets.
        code, out, err = run(capsys, "index", "--family", "power:Z480", "--m", "4")
        assert code == 0 and out == "6903970678\n"
        assert err.endswith("\r8855/8855 class supports\n")
        assert "subsets" not in err
        # path:40 is twin-free: the kernel weighs all C(40, 3) supports of H = G.
        code, out, err = run(capsys, "index", "--family", "path:40", "--m", "3")
        assert code == 0 and out == "202540\n"
        assert err.endswith("\r9880/9880 class supports\n")

    def test_naive_progress_counts_subsets(self, capsys):
        code, out, err = run(capsys, "index", "--family", "path:30", "--m", "3", "--method", "naive")
        assert code == 0 and out == "62930\n"
        assert err.endswith("\r4060/4060 subsets\n")

    def test_closed_form_multipartite(self, capsys):
        code, out, _ = run(
            capsys, "index", "--family", "multipartite:3,3,3", "--m", "5", "--method", "closed_form"
        )
        assert code == 0
        assert out == "504\n"

    def test_closed_form_needs_multipartite(self, capsys):
        code, _, err = run(
            capsys, "index", "--family", "wheel:5", "--m", "2", "--method", "closed_form"
        )
        assert code == 2
        assert "multipartite" in err

    def test_closed_form_builds_no_graph(self, capsys, monkeypatch):
        def no_graph(spec):
            raise AssertionError(f"closed_form built {spec}")

        monkeypatch.setattr("twindex.cli.family_graph", no_graph)
        code, out, _ = run(
            capsys, "index", "--family", "multipartite:3,3,3", "--m", "5", "--method", "closed_form"
        )
        assert (code, out) == (0, "504\n")

    @pytest.mark.parametrize(
        "error,code,message",
        [
            (KeyboardInterrupt(), 130, "twindex: interrupted\n"),
            (MemoryError(), 1, "twindex: out of memory\n"),
            (
                MemoryError("Unable to allocate 1.6 GiB for an array"),
                1,
                "twindex: out of memory: Unable to allocate 1.6 GiB for an array\n",
            ),
        ],
    )
    def test_interrupt_and_memory_are_one_line(self, capsys, monkeypatch, error, code, message):
        def raising(*args, **kwargs):
            raise error

        monkeypatch.setattr("twindex.cli.run_route", raising)
        assert run(capsys, "index", "--family", "power:Z6", "--m", "3") == (code, "", message)

    @pytest.mark.parametrize(
        "error,code,message",
        [
            (KeyboardInterrupt(), 130, "twindex: interrupted"),
            (MemoryError(), 1, "twindex: out of memory"),
            (twindex.DisconnectedGraph("not connected"), 1, "twindex: not connected"),
        ],
    )
    def test_error_after_progress_starts_its_own_line(self, capsys, monkeypatch, error, code, message):
        # A run cut short leaves its progress line without a newline; the
        # error line still starts a line of its own.
        def reporting(*args, progress, **kwargs):
            progress(1, PROGRESS_THRESHOLD)
            raise error

        monkeypatch.setattr("twindex.cli.run_route", reporting)
        err = f"\r1/{PROGRESS_THRESHOLD} class supports\n{message}\n"
        assert run(capsys, "index", "--family", "power:Z6", "--m", "3") == (code, "", err)

    @pytest.mark.parametrize(
        "family", ["multipartite:a,3", "multipartite:0,3", "power:Z6", "power:Z20000"]
    )
    def test_closed_form_bad_family_is_usage_error(self, capsys, family):
        # power:Z20000 is over the table budget (exit 1 under the other
        # methods); closed_form rejects it before any table is built.
        code, out, _ = run(
            capsys, "index", "--family", family, "--m", "2", "--method", "closed_form"
        )
        assert (code, out) == (2, "")

    def test_closed_form_from_file_is_usage_error(self, capsys, tmp_path):
        source = tmp_path / "g.txt"
        source.write_text("2\n0 1\n")
        code, _, err = run(
            capsys, "index", "--in", str(source), "--m", "2", "--method", "closed_form"
        )
        assert code == 2
        assert "multipartite" in err
        code, _, err = run(
            capsys, "index", "--in", str(source), "--family", "multipartite:3,3",
            "--m", "2", "--method", "closed_form",
        )
        assert code == 2
        assert "not both" in err

    def test_closed_form_one_part_is_computation_error(self, capsys):
        code, out, err = run(
            capsys, "index", "--family", "multipartite:5", "--m", "2", "--method", "closed_form"
        )
        assert (code, out) == (1, "")
        assert "at least two parts" in err

    def test_methods_agree_across_families(self, capsys):
        for family in ["power:Z6", "power:Q8", "comax:Z6", "wheel:5", "izdg:Z24:I=(8)"]:
            for m in (2, 3):
                _, naive, _ = run(capsys, "index", "--family", family, "--m", str(m), "--method", "naive")
                _, reduced, _ = run(capsys, "index", "--family", family, "--m", str(m), "--method", "reduced")
                assert naive == reduced, (family, m)

    def test_over_byte_budget_is_computation_error(self, capsys):
        code, _, err = run(capsys, "index", "--family", "path:322", "--m", "4", "--method", "naive")
        assert code == 1
        assert "budget" in err

    def test_order_over_table_budget_is_computation_error(self, capsys):
        code, out, err = run(capsys, "index", "--family", "power:Z20000", "--m", "2")
        assert code == 1
        assert out == ""
        assert "Z20000 has order above 2048" in err

    def test_warning_is_one_line(self, capsys):
        # A field has no zero divisors: the empty graph comes with a warning,
        # and m = 2 then exceeds its zero vertices.
        code, out, err = run(capsys, "index", "--family", "zdg:Z7", "--m", "2")
        assert code == 1
        assert out == ""
        assert err == (
            "twindex: warning: Z7 has no nonzero zero divisors; returning the empty graph\n"
            "twindex: subset size 2 not in [1, 0]\n"
        )
        code, out, err = run(capsys, "gen", "--family", "zdg:Z7")
        assert (code, out) == (0, "0\n")
        assert err == "twindex: warning: Z7 has no nonzero zero divisors; returning the empty graph\n"

    def test_disconnected_is_computation_error(self, capsys, tmp_path):
        source = tmp_path / "g.txt"
        source.write_text("4\n0 1\n")
        code, _, err = run(capsys, "index", "--in", str(source), "--m", "2")
        assert code == 1
        assert "connected" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "index", "--in", "/no/such/file", "--m", "2")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["edgelist", "json"])
    def test_file_not_utf8_is_usage_error(self, capsys, tmp_path, fmt):
        source = tmp_path / "g.txt"
        source.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "index", "--in", str(source), "--format", fmt, "--m", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("twindex: ") and "UTF-8" in err

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"3\n0 1\n1 2\n")))
        code, out, _ = run(capsys, "index", "--in", "-", "--m", "2", "--method", "naive")
        assert code == 0
        assert out == "4\n"

    def test_stdin_not_utf8_is_usage_error(self, capsys, monkeypatch):
        # Stdin goes through the same UTF-8 decoder as a file.
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe")))
        code, out, err = run(capsys, "index", "--in", "-", "--m", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("twindex: ") and "UTF-8" in err

    def test_gen_output_feeds_index_input(self, capsys, tmp_path):
        target = tmp_path / "z6.json"
        assert run(capsys, "gen", "--family", "power:Z6", "--format", "json", "--out", str(target))[0] == 0
        code, out, _ = run(
            capsys, "index", "--in", str(target), "--format", "json", "--m", "3"
        )
        assert code == 0
        assert out == "41\n"

    def test_both_inputs_rejected(self, capsys, tmp_path):
        source = tmp_path / "g.txt"
        source.write_text("2\n0 1\n")
        code, _, err = run(capsys, "index", "--family", "path:3", "--in", str(source))
        assert code == 2
        assert "not both" in err


class TestBench:
    def test_csv_structure_and_agreement(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--family", "power:Z6", "--family", "wheel:5",
            "--m", "2,3", "--reps", "1",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2 * 2 * 2  # families x m values x methods
        for row in rows:
            assert float(row["elapsed_ms"]) >= 0
        by_key = {}
        for row in rows:
            by_key.setdefault((row["family"], row["m"]), set()).add(row["value"])
        assert all(len(values) == 1 for values in by_key.values())

    def test_csv_to_file(self, capsys, tmp_path):
        target = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys, "bench", "--family", "power:Z6", "--m", "3", "--reps", "1",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        rows = list(csv.DictReader(target.open()))
        assert {row["method"] for row in rows} == {"naive", "reduced"}
        assert all(row["value"] == "41" for row in rows)


    def test_stdout_and_file_bytes_match(self, capsys, tmp_path):
        target = tmp_path / "bench.csv"
        argv = ["bench", "--family", "power:Z6", "--family", "wheel:5", "--m", "2,3", "--reps", "1"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--out", str(target))[:2] == (0, "")
        written = target.read_bytes().decode()
        assert written.startswith("family,n,m,method,value,elapsed_ms,reps\r\n")
        assert out.startswith("family,n,m,method,value,elapsed_ms,reps\r\n")
        assert written.count("\r\n") == out.count("\r\n") == 9
        assert "\n" not in written.replace("\r\n", "")

        def timings_masked(text):
            return [line.rsplit(",", 2)[0] for line in text.split("\r\n")]

        assert timings_masked(written) == timings_masked(out)

    def test_disagreement_is_computation_error(self, capsys, reduced_off_by_one):
        code, out, err = run(capsys, "bench", "--family", "power:Z6", "--m", "3", "--reps", "1")
        assert (code, out) == (1, "")
        assert "method disagreement on power:Z6 m=3: naive=41 reduced=42" in err

    @pytest.mark.parametrize("m", ["2,x", "three", "2,,3"])
    def test_bad_m_list_is_usage_error(self, capsys, m):
        code, out, err = run(capsys, "bench", "--family", "power:Z6", "--m", m, "--reps", "1")
        assert (code, out) == (2, "")
        assert f"bad --m list {m!r}" in err

    @pytest.mark.parametrize("reps", ["0", "-5"])
    def test_reps_below_one_is_usage_error(self, capsys, reps):
        code, out, err = run(capsys, "bench", "--family", "power:Z6", "--m", "3", "--reps", reps)
        assert (code, out) == (2, "")
        assert f"--reps must be at least 1, got {reps}" in err


class TestVerify:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "11/11 checks passed"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["failures"] == 0
        assert len(record["checks"]) == 11
        for check in record["checks"][:10]:
            assert {"naive", "reduced", "closed_form"} <= set(check)
            assert ("wiener" in check) == check["name"].startswith("W ")

    def test_star_sweep_covers_every_m(self, capsys, monkeypatch):
        calls = []

        def recording(family, m):
            calls.append((family, m))
            return cross_check(family, m)

        monkeypatch.setattr("twindex.cli.cross_check", recording)
        assert run(capsys, "verify-paper")[0] == 0
        star = [(f, m) for f, m in calls if f.startswith("multipartite:1,")]
        assert star == [(f"multipartite:1,{n - 1}", m) for n in range(4, 11) for m in range(1, n + 1)]
        assert len(star) == 49

    def test_failing_rows(self, capsys, reduced_off_by_one):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 3
        lines = out.splitlines()
        assert all(line.startswith("FAIL") for line in lines[:-1])
        assert "expected 41, naive=41 reduced=42" in lines[0]
        assert "expected 113, naive=113 wiener=113 reduced=114" in lines[1]
        assert "naive=504 reduced=505 closed_form=504" in lines[3]
        assert lines[10] == (
            "FAIL star closed form sweep (n=4..10, all m): method disagreement on "
            "multipartite:1,3 m=1: naive=0 reduced=1 closed_form=0"
        )
        assert lines[-1] == "0/11 checks passed"

    def test_failing_rows_json(self, capsys, reduced_off_by_one):
        code, out, _ = run(capsys, "verify-paper", "--json")
        assert code == 3
        record = json.loads(out)
        assert record["failures"] == 11
        assert record["checks"][0]["naive"] == 41
        assert record["checks"][0]["reduced"] == 42
        assert not any(check["passed"] for check in record["checks"])


class TestRouteRunner:
    def test_one_patch_point_reaches_every_command(self, capsys, reduced_off_by_one):
        # index, bench and verify-paper all run the reduced route through
        # reference.run_route, so the one patch reaches each of them.
        assert run(capsys, "index", "--family", "power:Z6", "--m", "3")[:2] == (0, "42\n")
        assert run(capsys, "bench", "--family", "power:Z6", "--m", "3", "--reps", "1")[0] == 1
        assert run(capsys, "verify-paper")[0] == 3


def python_m_twindex(*argv):
    """Run ``python -m twindex`` on this checkout's package in a new process."""
    src = str(Path(twindex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "twindex", *argv],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


class TestModuleEntryPoint:
    def test_index(self):
        proc = python_m_twindex("index", "--family", "power:Z6", "--m", "3")
        assert (proc.returncode, proc.stdout) == (0, "41\n")

    def test_malformed_spec_is_usage_error(self):
        proc = python_m_twindex("index", "--family", "nosuch:3", "--m", "2")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("twindex: ")

    def test_warning_is_one_line(self):
        proc = python_m_twindex("gen", "--family", "zdg:Z7")
        assert (proc.returncode, proc.stdout) == (0, "0\n")
        assert proc.stderr == "twindex: warning: Z7 has no nonzero zero divisors; returning the empty graph\n"


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["index", "--family", "power:Z6", "--frobnicate"])
        assert exc.value.code == 2
