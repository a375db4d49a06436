"""Smoke test of the benchmark harness: helpers, tracer, tiny workloads.

Run from the repository root with ``python -m pytest perfbench``.
"""

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from adkit import algebra, catalog, iso, solver  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_matches_inclusive_quantiles():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile(list(range(1, 12)), 90) == 10
    assert run.percentile([7.0], 90) == 7.0
    rng = random.Random(5)
    data = [rng.random() for _ in range(37)]
    deciles = statistics.quantiles(data, n=10, method="inclusive")
    assert run.percentile(data, 90) == pytest.approx(deciles[8])
    assert run.percentile(data, 50) == pytest.approx(statistics.median(data))
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_self_times_subtract_direct_children_only():
    records = [("root", 0, -1, 0.0, 10.0), ("a", 0, 0, 1.0, 4.0),
               ("a.child", 0, 1, 2.0, 3.0), ("b", 0, 0, 5.0, 6.0)]
    assert tracing.self_times(records) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_patches_by_name_imports_and_restores_them():
    original = algebra.is_two_nilpotent
    assert iso.is_two_nilpotent is original
    ad = catalog.get("AD3_2")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        iso.fingerprint(ad)
    finally:
        tracer.uninstall()
    assert iso.is_two_nilpotent is original
    assert algebra.is_two_nilpotent is original
    # fingerprint reaches these only through iso's by-name imports
    assert tracer.calls["iso.fingerprint"] == 1
    assert tracer.calls["algebra.is_two_nilpotent"] == 1
    assert tracer.calls["algebra.power_series"] == 1
    assert tracer.calls["linalg.span_dim"] >= 1
    assert tracer.calls["scalars.Poly.add"] > 0
    # self times partition the root span: they sum to its duration
    (root,) = [r for r in tracer.records if r[2] == -1]
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(root[4] - root[3], rel=1e-6)
    self_by_record = tracing.self_times(tracer.records)
    assert sum(self_by_record) == pytest.approx(root[4] - root[3], rel=1e-6)
    assert all(s >= 0 for s in self_by_record)


def _args(workload, trace, seed=3):
    return argparse.Namespace(workload=workload, seed=seed, seconds=0.0,
                              trace=trace, setup_only=None)


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _names(kind):
    return {m["name"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_runs_clean_and_repeats(workload, at_root):
    assert workload in {w["name"] for w in BENCH["workloads"]}
    untraced = run.run(_args(workload, 0), tiny=True)
    assert untraced["failed"] == 0 and untraced["correct"]
    assert set(untraced["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    first = run.run(_args(workload, 1), tiny=True)
    second = run.run(_args(workload, 1), tiny=True)
    for out in (first, second):
        assert out["failed"] == 0 and out["correct"]
        assert set(out["metrics"]) == _names("per_layer")
    assert first["determinism"] == second["determinism"]
    assert untraced["determinism"]["outputs"] == first["determinism"]["outputs"]


def test_wrong_verdict_counts_as_failed_op(at_root, monkeypatch):
    monkeypatch.setattr(solver, "replay_certificate", lambda system, b: False)
    out = run.run(_args("enumerate-lowdim", 0), tiny=True)
    # every input with a certificate now fails its replay check
    assert out["failed"] >= len(workloads.IDEMPOTENT_BASES)
    assert not out["correct"]
    assert out["fail_share"] == out["failed"] / out["attempted"]
