"""Tests of the benchmark itself: seeded inputs, planted classes, golden table.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

API = run.load_api(fresh=False)


def fingerprint(workload):
    return [
        (item.key, item.m, item.spec, item.expected, item.planted,
         None if item.graph is None else item.graph.edges())
        for item in workload.items
    ]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    a = workloads.build(API, name, 7)
    b = workloads.build(API, name, 7)
    assert fingerprint(a) == fingerprint(b)
    assert len({item.key for item in a.items}) == len(a.items)
    order_a = islice(workloads.cycles(a.items, workloads.stream_rng(name, 7)), 3)
    order_b = islice(workloads.cycles(b.items, workloads.stream_rng(name, 7)), 3)
    assert [[i.key for i in c] for c in order_a] == [[i.key for i in c] for c in order_b]


@pytest.mark.parametrize("name", ["twin-free", "oracle"])
def test_other_seed_other_graphs(name):
    assert fingerprint(workloads.build(API, name, 1)) != fingerprint(workloads.build(API, name, 2))


def test_twin_free_graphs_have_no_twins():
    for item in workloads.build(API, "twin-free", 3).items:
        assert API.twin_partition(item.graph).k == item.graph.n


def test_planted_class_count_when_base_is_twin_free():
    checked = 0
    for seed in range(6):
        for item in workloads.build(API, "oracle", seed).items:
            if item.planted is None:
                continue
            base, sizes, _ = item.planted
            assert sum(sizes) == item.graph.n
            if not workloads.has_twins(len(sizes), base):
                assert API.twin_partition(item.graph).k == len(sizes)
                checked += 1
    assert checked >= 20


def test_golden_table_covers_the_pool():
    assert set(workloads.load_golden()) == set(workloads.paper_pool())


@pytest.mark.parametrize("spec,m", workloads.paper_pool())
def test_golden_rows_match_recomputed_values(spec, m):
    d = API.twin_partition(API.family_graph(spec))
    assert API.steiner_wiener_reduced(d, m) == workloads.load_golden()[spec, m]


def bench_copy(tmp_path, with_src=True):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def bench(root, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_fails_without_sources(tmp_path):
    proc = bench(bench_copy(tmp_path, with_src=False),
                 "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(tmp_path, trace, section):
    root = bench_copy(tmp_path)
    proc = bench(root, "--workload", "oracle", "--seed", "1", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((root / "BENCHMARK.json").read_text())[section]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
