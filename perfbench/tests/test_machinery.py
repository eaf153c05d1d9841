"""Tests of the benchmark's own machinery (not of privateyes).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads
import worker

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_self_time_on_synthetic_span_tree():
    #   0 root [0, 100]
    #   1   a  [10, 40]   children overlap: covered part of root is [10, 60]
    #   2     g [15, 20]
    #   3   b  [30, 60]
    #   4   c  [90, 120]  runs past its parent: only [90, 100] counts
    start = [0, 10, 15, 30, 90]
    end = [100, 40, 20, 60, 120]
    parent = [-1, 0, 1, 0, 0]
    assert spans.self_times(start, end, parent) == [40, 25, 5, 30, 30]


def test_descendants_follow_parent_links():
    name_id = [0, 1, 2, 1, 3]
    parent = [-1, 0, 1, -1, 3]
    assert spans.descendants_of(name_id, parent, 1) == [False, False, True, False, True]


def test_tracer_records_nesting_counts_and_ops():
    tr = spans.Tracer()

    def inner(x):
        return x + 1

    inner_t = tr.wrap(inner, "inner", lambda t, a, k, r: t.count("inner.calls", a[0]))

    def outer():
        return inner_t(1) + inner_t(2)

    result, wall = tr.run_op(7, tr.wrap(outer, "outer"))
    assert result == 5 and wall > 0
    names = [tr.names[i] for i in tr.name_id]
    assert names == [spans.OP_SPAN, "outer", "inner", "inner"]
    assert list(tr.parent) == [-1, 0, 1, 1]
    assert set(tr.op_id) == {7}
    assert tr.counters[7]["inner.calls"] == 3
    assert all(e >= s for s, e in zip(tr.start, tr.end))


def _targets():
    for _, module, path, _ in spans.WRAPS:
        owner = importlib.import_module(f"privateyes.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        yield f"{module}.{path}", owner, attr


def test_every_wrapped_name_is_restored_after_a_traced_op(tmp_path):
    originals = {key: vars(owner)[attr] for key, owner, attr in _targets()}
    wl = workloads.WORKLOADS["secure-wide"].smoke()
    ctx = wl.setup(1, tmp_path)
    tr = spans.Tracer().install()
    assert not tr.missing
    assert all(vars(o)[a] is not originals[k] for k, o, a in _targets())
    try:
        tr.run_op(0, wl.op, ctx)
    finally:
        tr.uninstall()
    assert {key: vars(owner)[attr] for key, owner, attr in _targets()} == originals
    recorded = len(tr.start)
    wl.op(ctx)  # untraced: the original callables record nothing
    assert len(tr.start) == recorded > 1


def test_metric_names_are_well_formed_and_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    per_layer = [m["name"] for m in declared["per_layer"]]
    loop = worker.Loop(workloads.WORKLOADS["secure-wide"], None, "")
    loop.walls, loop.cals = [1.0], [worker.CAL_REF_S]
    loop.first = {"wire_bytes_per_round": 1.0}
    assert end_to_end == ["setup_s", *worker.end_to_end(loop.workload, loop)]
    assert per_layer == list(spans.PER_LAYER_UNITS)
    names = end_to_end + per_layer + [w["name"] for w in declared["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert worker.tail([1.0] * 10) is None
    value, pct, beyond = worker.tail([float(i) for i in range(20)])
    assert (value, pct, beyond) == (9.0, 50.0, 10)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_rejects_a_corrupted_output(name, tmp_path):
    wl = workloads.WORKLOADS[name].smoke()
    ctx = wl.setup(2, tmp_path)
    reference = wl.reference(ctx)
    good = wl.op(ctx)
    failed, first = wl.check(ctx, good, reference, {})
    assert failed == []
    bad = wl.op(ctx)
    if isinstance(wl, workloads.TrainingWorkload):
        bits = bad.final_model.view(np.uint64)
        bits[0] ^= 1  # one bit of one weight
    else:
        (bad[1] / "leakage.csv").write_text("scheme,mae_deg,kl\nprivateyes,0,0\n")
    failed, _ = wl.check(ctx, bad, reference, first)
    assert failed
    wl.cleanup(good)
    wl.cleanup(bad)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_workload_passes_its_gate(name, trace):
    done = run_bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in declared[kind]]
    if trace == "1":
        assert result["metrics"]["protocol.aborts"]["value"] == 0


def test_fails_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
    done = run_bench("--workload", "secure-wide", "--seed", "1", "--seconds", "1",
                     "--trace", "0", root=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
