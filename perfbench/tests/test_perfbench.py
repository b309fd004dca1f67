"""Tests of the benchmark's own arithmetic, plus a quick-mode smoke run
of every workload.  Run from the repo root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import ledger  # noqa: E402
import stats  # noqa: E402


# -- the percentile rule -----------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert stats.percentile(values, 0.99) == 990
    assert stats.percentile(values[:999], 0.99) is None


def test_p50_needs_twenty_samples():
    assert stats.percentile(list(range(20)), 0.5) == 9
    assert stats.percentile(list(range(19)), 0.5) is None
    assert stats.percentile([], 0.5) is None


def test_percentile_is_order_free_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert stats.percentile(values, 0.5) == 3.0
    assert stats.percentile(values, 0.5, min_beyond=0) == 3.0


def test_percentile_rejects_bad_levels():
    with pytest.raises(ValueError):
        stats.percentile([1.0] * 100, 1.0)


# -- rate aggregation across passes -------------------------------------------

def test_rate_divides_total_work_by_total_wall():
    # a mean of per-pass rates would say (24 + 12) / 2 = 18
    assert stats.rate([48, 48], [2.0, 4.0]) == pytest.approx(16.0)


def test_rate_rejects_mismatched_or_empty_input():
    with pytest.raises(ValueError):
        stats.rate([48], [1.0, 2.0])
    with pytest.raises(ValueError):
        stats.rate([], [])


# -- the self-time ledger --------------------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def fake_layers(monkeypatch):
    """A throwaway package whose functions advance a fake clock."""
    clock = FakeClock()
    monkeypatch.setattr(ledger.time, "perf_counter", clock)
    mod = types.ModuleType("fakepkg")
    user = types.ModuleType("fakepkg.user")

    def inner(work: float) -> str:
        clock.now += work
        return "inner"

    def outer(work: float, inner_work: float, calls: int) -> str:
        clock.now += work
        for _ in range(calls):
            mod.inner(inner_work)
        return "outer"

    def recursive(depth: int) -> None:
        clock.now += 1.0
        if depth:
            mod.recursive(depth - 1)

    mod.inner, mod.outer, mod.recursive = inner, outer, recursive
    user.inner_alias = inner  # a ``from fakepkg import inner`` elsewhere
    monkeypatch.setitem(sys.modules, "fakepkg", mod)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    targets = (
        ("outer", "fakepkg", "outer", "outer_calls"),
        ("inner", "fakepkg", "inner", "inner_calls"),
        ("rec", "fakepkg", "recursive", None),
    )
    counts: dict[str, float] = {}

    def sink(name: str, delta: float) -> None:
        counts[name] = counts.get(name, 0.0) + delta

    return ledger.Tracer(targets, sink), mod, user, counts


def test_children_are_subtracted_once(fake_layers):
    tracer, mod, user, counts = fake_layers
    with tracer:
        assert mod.outer(2.0, 0.5, 3) == "outer"
    assert counts[ledger.self_counter("outer")] == pytest.approx(2.0)
    assert counts[ledger.self_counter("inner")] == pytest.approx(1.5)
    assert counts[ledger.calls_counter("outer_calls")] == 1
    assert counts[ledger.calls_counter("inner_calls")] == 3
    # self times add up to the outermost wall
    total = sum(counts[ledger.self_counter(n)] for n in ("outer", "inner"))
    assert total == pytest.approx(3.5)


def test_nested_calls_of_one_layer_add_up(fake_layers):
    tracer, mod, _, counts = fake_layers
    with tracer:
        mod.recursive(4)
    assert counts[ledger.self_counter("rec")] == pytest.approx(5.0)


def test_aliases_are_wrapped_and_restored(fake_layers):
    tracer, mod, user, counts = fake_layers
    original = user.inner_alias
    with tracer:
        assert user.inner_alias is not original
        user.inner_alias(1.0)
    assert user.inner_alias is original and mod.inner is original
    assert counts[ledger.calls_counter("inner_calls")] == 1


def test_unattributed_share_stays_in_unit_interval():
    assert ledger.unattributed_share([3.0, 1.0], 5.0) == pytest.approx(0.2)
    assert ledger.unattributed_share([3.0, 3.0], 5.0) == 0.0
    assert ledger.unattributed_share([], 5.0) == 1.0
    assert ledger.unattributed_share([1.0], 0.0) == 0.0


def test_samples_since_subtracts_cumulative_metrics_only():
    before = ledger.Samples(
        "# TYPE graphbench_a counter\ngraphbench_a 2\n"
        "# TYPE graphbench_g gauge\ngraphbench_g 5\n"
        "# TYPE graphbench_h summary\n"
        'graphbench_h{quantile="0.99"} 1\ngraphbench_h_sum 3\n'
        "graphbench_h_count 2\n"
    )
    after = ledger.Samples(
        "# TYPE graphbench_a counter\ngraphbench_a 7\n"
        "# TYPE graphbench_g gauge\ngraphbench_g 4\n"
        "# TYPE graphbench_h summary\n"
        'graphbench_h{quantile="0.99"} 2\ngraphbench_h_sum 10\n'
        "graphbench_h_count 5\n"
    )
    delta = after.since(before)
    assert delta.get("a") == 5
    assert delta.get("g") == 4
    assert delta.hist_sum("h") == 7 and delta.hist_count("h") == 3
    assert delta.hist_quantile("h", "0.99") == 2


# -- quick-mode smoke run of every workload ------------------------------------

def _spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def _run(cwd: pathlib.Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [w["name"] for w in _spec()["workloads"]]
)
def test_quick_run_reports_every_metric(workload, trace):
    proc = _run(REPO, "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "grid_cold", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_all_runs_every_workload_traced_and_untraced():
    proc = _run(REPO, "--workload", "all", "--seed", "3",
                "--seconds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    spec = _spec()
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert f"{workload['name']}/{metric['name']}" in result["metrics"]
