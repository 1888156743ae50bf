"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, layers, workloads  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"


def _small(name):
    """The workload at test scale: same constructors, a few rounds."""
    from repro.experiments.workloads import DigitsWorkload, NWPWorkload

    w = workloads.WORKLOADS[name]
    if name == "digits_cnn":
        return dataclasses.replace(
            w, rounds=4, prepare=lambda s: DigitsWorkload("test", seed=s)
        )
    if name == "nwp_lstm":
        return dataclasses.replace(
            w, rounds=2, prepare=lambda s: NWPWorkload("test", seed=s)
        )
    # 25 closes, so one checkpoint is written.
    return dataclasses.replace(
        w,
        rounds=25,
        prepare=lambda s: workloads.PopulationInputs(s, population=2_000, cohort=10),
    )


def _originals():
    return {
        (owner, attr): vars(layers.resolve(owner))[attr]
        for owner, attrs, _, _ in layers.LAYERS
        for attr in attrs
    }


def test_traced_wraps_and_restores_every_original():
    before = _originals()
    with layers.traced(layers.LayerTimer()):
        during = _originals()
        assert all(during[k] is not v for k, v in before.items())
    assert all(_originals()[k] is v for k, v in before.items())


def test_traced_restores_when_the_block_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with layers.traced(layers.LayerTimer()):
            raise RuntimeError("boom")
    assert all(_originals()[k] is v for k, v in before.items())


def test_self_time_excludes_wrapped_children():
    import time
    import types

    mod = types.SimpleNamespace()

    def child():
        time.sleep(0.02)

    def parent():
        mod.child()
        time.sleep(0.01)

    timer = layers.LayerTimer()
    mod.child = timer.wrap(child, "child", "child.calls")
    wrapped_parent = timer.wrap(parent, "parent", None)
    wrapped_parent()
    assert timer.calls["child.calls"] == 1
    assert timer.self_s["child"] >= 0.02
    assert timer.self_s["parent"] >= 0.01
    # The parent's self time is its duration minus the child's.
    assert timer.self_s["parent"] + timer.self_s["child"] == pytest.approx(
        timer.inclusive_s["parent"], abs=1e-9
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced(name, tmp_path):
    w = _small(name)
    data = w.prepare(workloads.WORKLOADS[name].seeds[0])
    plain = bench.run_pass(w, data, str(tmp_path))
    traced = bench.run_pass(w, data, str(tmp_path), trace=True)
    assert plain.error is None and traced.error is None
    assert len(plain.records) == w.rounds
    assert traced.digest == plain.digest
    assert bench.check_pass(traced, bench.reference_entry(plain)) == 0
    metrics = bench.layer_metrics([traced], [plain], 0.0)
    assert set(metrics) == set(bench.LAYER_METRICS)
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["residual_s"] < metrics["traced_round_s"]
    if name == "population_async":
        assert metrics["ckpt.saves"] > 0 and metrics["ckpt.bytes"] > 0
        assert metrics["fl.events.queue.pops"] > 0
    else:
        assert metrics["fl.workspace.train_step.calls"] > 0
    assert list(tmp_path.iterdir()) == []


def test_check_pass_counts_differing_and_missing_rounds(tmp_path):
    w = _small("digits_cnn")
    result = bench.run_pass(w, w.prepare(7), str(tmp_path))
    reference = bench.reference_entry(result)
    assert bench.check_pass(result, reference) == 0
    assert bench.check_pass(result, None) == w.rounds
    wrong = dict(reference, records=["0" * 16] + reference["records"][1:])
    assert bench.check_pass(result, wrong) == 1
    wrong_final = dict(reference, history_digest="0" * 64)
    assert bench.check_pass(result, wrong_final) == 1
    short = dataclasses.replace(result, records=result.records[:-1], digest=None)
    assert bench.check_pass(short, reference) == 1


def test_reference_covers_every_seed():
    reference = bench.load_reference()
    for w in workloads.WORKLOADS.values():
        for seed in workloads.all_seeds(w):
            entry = reference[w.name][str(seed)]
            assert entry["rounds"] == w.rounds
            assert len(entry["records"]) == w.rounds
    # The committed fig4 report's phi for digits at 0.6.
    assert reference["digits_cnn"]["7"]["uploads_to_target"] == 585


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        bench.E2E_METRICS.items()
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        bench.LAYER_METRICS.items()
    )
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", "population_async",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "digits_cnn",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
