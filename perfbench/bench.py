"""Running passes, checking them against the reference, and the metrics.

A *pass* is one fresh closed-loop training run of a workload's
``rounds`` rounds.  Its wall time runs from the call into the engine
until the engine returns, so eval, decide/aggregate and checkpoint
saves are all inside.  Two cheap hooks on the pass's own instances
record when each round closes (``FLServer.apply_round``, once per
close under both engines) and ends (``RunHistory.append``); nothing
else is timed unless the pass is traced.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

from perfbench.layers import LayerTimer, traced

__all__ = [
    "E2E_METRICS",
    "LAYER_METRICS",
    "PassResult",
    "REFERENCE_PATH",
    "check_pass",
    "end_to_end_metrics",
    "fingerprint",
    "layer_metrics",
    "load_reference",
    "peak_rss_mib",
    "record_digests",
    "reference_entry",
    "run_pass",
]

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: End-to-end metrics: name -> unit.
E2E_METRICS = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "round_s_p50": "s",
    "peak_rss_mib": "MiB",
}

_SELF_KEYS = [
    "nn.Conv2D.forward",
    "nn.Conv2D.backward",
    "nn.im2col",
    "nn.col2im",
    "nn.MaxPool2D.forward",
    "nn.MaxPool2D.backward",
    "nn.ReLU.forward",
    "nn.ReLU.backward",
    "nn.LSTM.forward",
    "nn.LSTM.backward",
    "nn.sigmoid",
    "nn.Embedding.forward",
    "nn.Embedding.backward",
    "nn.Dense.forward",
    "nn.Dense.backward",
    "nn.loss",
    "nn.optimizer.step",
    "nn.BatchedConv2D.forward",
    "nn.BatchedConv2D.backward",
    "nn.BatchedMaxPool2D.forward",
    "nn.BatchedMaxPool2D.backward",
    "nn.BatchedLSTM.forward",
    "nn.BatchedLSTM.backward",
    "nn.BatchedEmbedding.forward",
    "nn.BatchedEmbedding.backward",
    "nn.BatchedDense.forward",
    "nn.BatchedDense.backward",
    "fl.workspace.train_step",
    "fl.workspace.evaluate",
    "fl.client.compute_update",
    "fl.batched.train_step_all",
    "fl.sampling.select",
    "fl.store.checkout",
    "fl.store.writeback",
    "fl.store.record_round",
    "core.decide",
    "fl.server.apply_round",
    "obs.tracer.event",
    "obs.rollup",
    "obs.health.observe_round",
]
_PER_ROUND_COUNTS = [
    "nn.im2col.calls",
    "nn.col2im.calls",
    "nn.sigmoid.calls",
    "fl.workspace.train_step.calls",
    "core.decide.calls",
    "fl.events.queue.pops",
    "ckpt.saves",
]

#: Per-layer metrics: name -> unit.  Times are per round unless the
#: README says otherwise.
LAYER_METRICS: Dict[str, str] = {f"{k}_s": "s" for k in _SELF_KEYS}
LAYER_METRICS.update({k: "count" for k in _PER_ROUND_COUNTS})
LAYER_METRICS.update(
    {
        "fl.batched.rows_per_step": "rows",
        "fl.executor.run_round_s": "s",
        "fl.executor.self_s": "s",
        "fl.executor.stacked_share": "fraction",
        "fl.store.materialized_shards": "count",
        "fl.store.nbytes": "bytes",
        "core.upload_share": "fraction",
        "fl.trainer.self_s": "s",
        "fl.events.self_s": "s",
        "ckpt.save_s": "s",
        "ckpt.bytes": "bytes",
        "data.build_s": "s",
        "traced_round_s": "s",
        "residual_s": "s",
        "trace_overhead": "fraction",
    }
)


def record_digest(record) -> str:
    """One round's share of ``history_digest``: loss, score, uploads."""
    h = hashlib.sha256()
    h.update(np.float64(record.mean_train_loss).tobytes())
    h.update(np.float64(record.mean_score).tobytes())
    h.update(np.asarray(record.uploaded_ids, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def record_digests(history) -> List[str]:
    return [record_digest(r) for r in history]


@dataclass
class PassResult:
    rounds: int  # rounds the pass was asked to run
    wall_s: float
    samples: int  # local-SGD samples of the rounds that completed
    round_s: List[float]  # close-to-close intervals, the first from pass start
    records: List[str]
    digest: Optional[str]  # history_digest of the finished pass
    error: Optional[str] = None
    upload_bytes: int = 0
    uploads_to_target: Optional[int] = None
    time_to_target_s: Optional[float] = None
    final_test_accuracy: Optional[float] = None
    store: Dict[str, int] = field(default_factory=dict)
    #: Traced passes: LayerTimer.snapshot() of the pass window.
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    build_s: float = 0.0  # data.build self time while constructing the pass
    seed: Optional[int] = None  # the workload seed, set by the caller


def run_pass(workload, data, scratch_dir: str, trace: bool = False) -> PassResult:
    """Build a fresh run from ``data`` and run one pass of it."""
    from repro.experiments.timing import history_digest

    timer = LayerTimer()
    # A fresh directory per pass: checkpoint pruning must not see
    # another pass's files.
    pass_dir = tempfile.mkdtemp(dir=scratch_dir)
    with traced(timer) if trace else nullcontext():
        run = workload.start(data, pass_dir)
        build_s = timer.self_s.get("data.build", 0.0)
        try:
            trainer = run.trainer
            closes: List[float] = []
            ends: List[float] = []
            apply_round = trainer.server.apply_round
            append = trainer.history.append

            def stamped_apply(*args, **kwargs):
                out = apply_round(*args, **kwargs)
                closes.append(perf_counter())
                return out

            def stamped_append(record):
                append(record)
                ends.append(perf_counter())

            trainer.server.apply_round = stamped_apply
            trainer.history.append = stamped_append
            before = timer.snapshot()
            error = None
            start = perf_counter()
            try:
                run.engine.run(workload.rounds)
            except Exception:  # a failed pass is counted, not fatal
                error = traceback.format_exc()
            wall_s = perf_counter() - start
            after = timer.snapshot()
            history = list(trainer.history)
            result = PassResult(
                rounds=workload.rounds,
                wall_s=wall_s,
                samples=run.samples_per_round * len(history),
                round_s=[float(d) for d in np.diff([start] + closes)],
                records=record_digests(history),
                digest=None if error else history_digest(trainer),
                error=error,
                upload_bytes=int(trainer.ledger.total_bytes),
                build_s=build_s,
            )
            _paper_quantities(result, trainer.history, ends, start, run.target_accuracy)
            if trainer.store is not None:
                result.store = {
                    "materialized_shards": int(trainer.store.materialized_shards),
                    "nbytes": int(trainer.store.nbytes),
                }
            if trace:
                result.layers = {
                    kind: {k: v - before[kind].get(k, 0) for k, v in values.items()}
                    for kind, values in after.items()
                }
        finally:
            run.close()
            shutil.rmtree(pass_dir, ignore_errors=True)
    # The engine and trainer reference each other; free this pass's
    # store before the next pass allocates its own.
    del run
    gc.collect()
    return result


def _paper_quantities(result, history, ends, start, target) -> None:
    """fig4's quantities: phi and wall time to ``target``, last accuracy.

    phi is ``rounds_to_accuracy``'s (a trailing 3-point average of the
    test accuracy first reaching the target), so it matches the
    committed fig4 reports.
    """
    from repro.utils.smoothing import moving_average

    iterations, comm, metric = history.evaluated_points()
    if metric.size == 0:
        return
    result.final_test_accuracy = float(metric[-1])
    if target is None:
        return
    hits = np.flatnonzero(moving_average(metric, 3) >= target)
    if hits.size:
        result.uploads_to_target = int(comm[hits[0]])
        result.time_to_target_s = ends[int(iterations[hits[0]]) - 1] - start


def reference_entry(result: PassResult) -> Dict[str, Any]:
    """What the reference file records about one seed's pass."""
    return {
        "rounds": result.rounds,
        "records": result.records,
        "history_digest": result.digest,
        "upload_bytes": result.upload_bytes,
        "uploads_to_target": result.uploads_to_target,
        "final_test_accuracy": result.final_test_accuracy,
    }


def load_reference() -> Dict[str, Any]:
    """Reference passes by workload, then by workload seed."""
    if not REFERENCE_PATH.exists():
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check_pass(result: PassResult, reference: Optional[Dict[str, Any]]) -> int:
    """Rounds of the pass that raised or differ from the reference.

    Rounds the pass never reached count as failed; so does the last
    round when every record matches but the final parameters do not.
    """
    if reference is None or reference["rounds"] != result.rounds:
        return result.rounds
    expected = reference["records"]
    failed = result.rounds - len(result.records)
    failed += sum(a != b for a, b in zip(result.records, expected))
    if failed == 0 and (
        result.digest != reference["history_digest"]
        or result.upload_bytes != reference["upload_bytes"]
    ):
        failed = 1
    return failed


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _samples_per_s(passes: List[PassResult]) -> float:
    """Median over passes of each pass's samples per wall second.

    The median keeps a host hiccup in one pass, or a seed that writes
    fewer checkpoints, from moving the run's figure.
    """
    return statistics.median(p.samples / p.wall_s for p in passes)


def end_to_end_metrics(passes: List[PassResult], setup_samples: List[float]) -> Dict[str, float]:
    rounds = [s for p in passes for s in p.round_s]
    return {
        "setup_s": statistics.median(setup_samples),
        "samples_per_s": _samples_per_s(passes),
        "round_s_p50": statistics.median(rounds) if rounds else 0.0,
        "peak_rss_mib": peak_rss_mib(),
    }


def layer_metrics(
    traced_passes: List[PassResult],
    untraced_passes: List[PassResult],
    prepare_build_s: float,
) -> Dict[str, float]:
    """Per-layer metrics from the traced passes (see the README)."""
    # A pass that raised before its first close still yields numbers.
    rounds = sum(len(p.records) for p in traced_passes) or 1
    totals: Dict[str, Dict[str, float]] = {
        kind: {} for kind in ("self_s", "inclusive_s", "calls", "tally")
    }
    for p in traced_passes:
        for kind, values in p.layers.items():
            into = totals[kind]
            for k, v in values.items():
                into[k] = into.get(k, 0) + v
    self_s, incl_s = totals["self_s"], totals["inclusive_s"]
    calls, tally = totals["calls"], totals["tally"]
    wall = sum(p.wall_s for p in traced_passes)
    out: Dict[str, float] = {}
    for key in _SELF_KEYS:
        out[f"{key}_s"] = self_s.get(key, 0.0) / rounds
    for name in _PER_ROUND_COUNTS:
        out[name] = calls.get(name, 0) / rounds
    stacked_calls = calls.get("fl.batched.train_step_all.calls", 0)
    stacked_rows = tally.get("stacked_rows", 0)
    local_steps = calls.get("fl.workspace.train_step.calls", 0) + stacked_rows
    out["fl.batched.rows_per_step"] = stacked_rows / stacked_calls if stacked_calls else 0.0
    out["fl.executor.run_round_s"] = incl_s.get("fl.executor", 0.0) / rounds
    out["fl.executor.self_s"] = self_s.get("fl.executor", 0.0) / rounds
    out["fl.executor.stacked_share"] = (
        tally.get("stacked_rows_2plus", 0) / local_steps if local_steps else 0.0
    )
    last_store = traced_passes[-1].store
    out["fl.store.materialized_shards"] = last_store.get("materialized_shards", 0)
    out["fl.store.nbytes"] = last_store.get("nbytes", 0)
    decisions = tally.get("decisions", 0)
    out["core.upload_share"] = tally.get("uploads", 0) / decisions if decisions else 0.0
    out["fl.trainer.self_s"] = self_s.get("fl.trainer", 0.0) / rounds
    out["fl.events.self_s"] = self_s.get("fl.events", 0.0) / rounds
    saves = calls.get("ckpt.saves", 0)
    out["ckpt.save_s"] = self_s.get("ckpt.save", 0.0) / saves if saves else 0.0
    out["ckpt.bytes"] = tally.get("ckpt_bytes", 0) / saves if saves else 0.0
    out["data.build_s"] = prepare_build_s + statistics.mean(
        p.build_s for p in traced_passes
    )
    out["traced_round_s"] = wall / rounds
    # Self times cover the pass window only: construction is not in it.
    out["residual_s"] = (wall - sum(self_s.values())) / rounds
    out["trace_overhead"] = (
        _samples_per_s(untraced_passes) / _samples_per_s(traced_passes) - 1.0
    )
    return out


def fingerprint(load_start) -> Dict[str, Any]:
    """The host a result set came from; compare results only within one."""
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "load_start": list(load_start),
        "load_end": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
