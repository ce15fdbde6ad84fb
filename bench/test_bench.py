"""Smoke tests of the benchmark itself: a few items of each workload through
the oracles, corrupted outputs counted as failures, and the tracer.

    python3 -m pytest -q bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import envinfo

envinfo.use_source()

import items  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SMOKE_ITEMS = {"verify_grid": 12, "gram_classify": 40, "exact_lane": 12}


def smoke(name, seed=3, runner=None, tracer=None):
    workload = items.WORKLOADS[name](seed)
    if runner is not None:
        workload.run = runner(workload.run)
    loop = run.Loop(workload, items.MEASURE, tracer=tracer)
    loop.items(count=SMOKE_ITEMS[name])
    return workload, loop


@pytest.mark.parametrize("name", sorted(SMOKE_ITEMS))
def test_smoke_items_pass_their_oracles(name):
    _, phase = smoke(name)
    assert phase.attempted == SMOKE_ITEMS[name]
    assert phase.unexplained == []
    if name != "gram_classify":
        assert phase.failed == 0


def test_flipped_verify_verdict_counts_as_failed():
    def flip(run_row):
        def corrupted(row):
            vr, rendered, text = run_row(row)
            return dataclasses.replace(vr, is_soliton=not vr.is_soliton), rendered, text
        return corrupted

    _, phase = smoke("verify_grid", runner=flip)
    assert phase.failed == phase.attempted
    assert all("soliton verdict" in reason for _, reason, _ in phase.failures)
    assert phase.failed / phase.attempted == 1.0


def test_flipped_gram_verdict_is_a_failure_not_explained_by_scale():
    def flip(run_item):
        def corrupted(item):
            g, rep, trace, witness, verdict = run_item(item)
            return g, rep, trace, witness, dataclasses.replace(
                verdict, is_soliton=not verdict.is_soliton)
        return corrupted

    _, phase = smoke("gram_classify", runner=flip)
    assert phase.failed == phase.attempted
    assert len(phase.unexplained) == phase.attempted


def test_changed_exact_ricci_counts_as_failed():
    def perturb(run_item):
        def corrupted(item):
            der, frame, ric = run_item(item)
            ric = ric.copy()
            ric[0, 0] += Fraction(1, 10**9)
            return der, frame, ric
        return corrupted

    _, phase = smoke("exact_lane", runner=perturb)
    assert phase.failed == phase.attempted


def test_raising_item_counts_as_failed_and_slowest():
    calls = []

    def fail_second(run_row):
        def maybe(row):
            calls.append(row)
            if len(calls) == 2:
                raise ZeroDivisionError("injected")
            return run_row(row)
        return maybe

    _, phase = smoke("verify_grid", runner=fail_second)
    assert phase.failed >= 1 and "injected" in phase.failures[0][1]
    assert run.latencies_ns(phase.durations_ns, phase.ok)[-1] == sum(phase.durations_ns)


def test_checksum_repeats_for_a_seed():
    a = smoke("exact_lane", seed=11)[1].checksum.hexdigest()
    b = smoke("exact_lane", seed=11)[1].checksum.hexdigest()
    c = smoke("exact_lane", seed=12)[1].checksum.hexdigest()
    assert a == b != c


def test_same_seed_same_items_and_failures():
    """A run's item count and its failures depend on the seed alone, so
    two sets of runs on the same seeds report the same failed count."""
    def measured_loop(seed):
        workload = items.GramClassify(seed)
        loop = run.Loop(workload, items.MEASURE)
        for size in run.window_sizes(run.run_items(workload, 1.0), run.WINDOWS):
            loop.items(count=size)
        return loop.attempted, loop.failures

    first = measured_loop(7)
    assert first == measured_loop(7)
    assert first[0] == items.GramClassify.check_set and first[1]


def test_verify_checksum_ignores_row_order():
    def full_pass(seed):
        workload = items.VerifyGrid(seed)
        phase = run.Loop(workload, items.MEASURE)
        phase.items(count=items.VERIFY_ROWS)
        assert phase.failed == 0
        return phase.checksum.hexdigest()

    assert full_pass(1) == full_pass(2)


def test_tracer_sees_both_derivation_calls_of_a_verify_row_and_restores():
    tracer = spans.Tracer()
    with tracer:
        with pytest.raises(RuntimeError, match="wrapper still installed"):
            spans.assert_untraced()
        with pytest.raises(RuntimeError):
            smoke("verify_grid")  # an untraced measurement must refuse
        _, phase = smoke("verify_grid", tracer=tracer)
    spans.assert_untraced()
    metrics = tracer.layer_metrics(phase.attempted)
    assert metrics["derivations.derivation_algebra.calls_per_item"][0] == 2
    assert metrics["derivations.derivation_algebra.float.calls_per_item"][0] == 2
    assert metrics["cli.verify_main_theorem.calls_per_item"][0] == 1
    assert metrics["orbit_geometry.orbit_data.self_us_per_item"][0] > 0
    assert metrics["linalg.nullspace.exact.calls_per_item"][0] == 0
    # every traced span belongs to an item, and self times telescope
    total = sum(metrics[f"{m}.self_us_per_item"][0] for m in spans.LAYERS)
    top = sum(s[2] - s[1] for s in tracer.spans
              if s[0] != spans.ITEM and tracer.spans[s[3]][0] == spans.ITEM)
    assert total == pytest.approx(top / 1e3 / phase.attempted)


def test_exact_lane_traces_the_fraction_lane():
    tracer = spans.Tracer()
    with tracer:
        _, phase = smoke("exact_lane", tracer=tracer)
    metrics = tracer.layer_metrics(phase.attempted)
    assert metrics["linalg.nullspace.exact.calls_per_item"][0] == 1
    assert metrics["linalg.nullspace.float.calls_per_item"][0] == 0
    assert metrics["lie_core.change_basis.exact.calls_per_item"][0] == 1


def test_gram_errors_are_counted_where_raised():
    workload = items.GramClassify(0)
    item = next(workload.stream(items.MEASURE))
    tracer = spans.Tracer()
    with tracer:
        tracer.begin_item(0)
        with pytest.raises(Exception, match="singular"):  # absolute det test in linalg
            workload.run(item._replace(scale=1e8, gram=1e8 * item.base))
        tracer.end_item()
    metrics = tracer.layer_metrics(1)
    assert metrics["linalg.errors"][0] == 1
    assert metrics["moduli.errors"][0] == 0


def test_percentile_ranks():
    assert run.tail_rank(200) == 190 and run.tail_rank(1000) == 950
    assert run.tail_rank(50) == 40 and run.tail_rank(5) == 1


def test_benchmark_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(envinfo.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(envinfo.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace, capsys):
    spec = json.loads((envinfo.ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "exact_lane", "--seed", "1", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        for name in run.REPORTED_ONLY + ("fail_ratio",):
            assert any(line.lstrip().startswith(name) for line in lines)
