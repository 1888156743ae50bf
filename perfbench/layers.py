"""Per-layer self time, taken from outside the program.

:func:`traced` wraps the public functions of every layer of the stack
for the duration of a ``with`` block and restores each original on
exit.  Functions imported by name are patched where they are called
(``repro.nn.layers.recurrent.sigmoid``, not ``repro.nn.activations``),
methods on the class that defines them.  Nothing in ``src/`` changes
and the run's arithmetic is untouched, so a traced run's history digest
equals the untraced one.

A wrapped call's *self time* is its duration minus the durations of
the wrapped calls it made.  Self times of all wrapped calls therefore
add up to the time spent inside any wrapped call; the rest of a pass is
the residual.  Wrappers keep one call stack, so traced runs need an
executor that computes clients in this thread (serial or batched).
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "LayerTimer", "resolve", "traced"]

# (owner "module" or "module:Class", attributes, self-time key, call-count
# name or None).  Attributes sharing a key add into one self time.
LAYERS: List[Tuple[str, Tuple[str, ...], str, Optional[str]]] = []


def _layer(owner, attrs, key, calls=None):
    LAYERS.append((owner, tuple(attrs), key, calls))


# repro.nn -- kernels, layers, loss and optimizer.
_conv = "repro.nn.layers.conv"
_layer(_conv, ["im2col"], "nn.im2col", "nn.im2col.calls")
_layer(_conv, ["col2im"], "nn.col2im", "nn.col2im.calls")
_layer("repro.nn.layers.recurrent", ["sigmoid"], "nn.sigmoid", "nn.sigmoid.calls")
for _owner, _name in [
    (_conv + ":Conv2D", "Conv2D"),
    (_conv + ":BatchedConv2D", "BatchedConv2D"),
    ("repro.nn.layers.dense:Dense", "Dense"),
    ("repro.nn.layers.dense:BatchedDense", "BatchedDense"),
    ("repro.nn.layers.embedding:Embedding", "Embedding"),
    ("repro.nn.layers.embedding:BatchedEmbedding", "BatchedEmbedding"),
]:
    _layer(_owner, ["forward"], f"nn.{_name}.forward")
    _layer(_owner, ["backward", "head_backward"], f"nn.{_name}.backward")
for _owner, _name in [
    (_conv + ":MaxPool2D", "MaxPool2D"),
    (_conv + ":BatchedMaxPool2D", "BatchedMaxPool2D"),
    ("repro.nn.activations:ReLU", "ReLU"),
    ("repro.nn.layers.recurrent:LSTM", "LSTM"),
    ("repro.nn.layers.recurrent:BatchedLSTM", "BatchedLSTM"),
]:
    _layer(_owner, ["forward"], f"nn.{_name}.forward")
    _layer(_owner, ["backward"], f"nn.{_name}.backward")
for _cls in [
    "SoftmaxCrossEntropy",
    "BatchedSoftmaxCrossEntropy",
    "SigmoidBinaryCrossEntropy",
    "BatchedSigmoidBinaryCrossEntropy",
]:
    _layer(f"repro.nn.losses:{_cls}", ["forward", "backward"], "nn.loss")
_layer("repro.nn.optimizers:SGD", ["step"], "nn.optimizer.step")

# repro.fl -- local step, client, stacked step, executor.
_layer(
    "repro.fl.workspace:ModelWorkspace",
    ["train_step"],
    "fl.workspace.train_step",
    "fl.workspace.train_step.calls",
)
_layer("repro.fl.workspace:ModelWorkspace", ["evaluate"], "fl.workspace.evaluate")
_layer("repro.fl.client:FLClient", ["compute_update"], "fl.client.compute_update")
_layer(
    "repro.fl.batched:BatchedWorkspace",
    ["train_step_all"],
    "fl.batched.train_step_all",
    "fl.batched.train_step_all.calls",
)
for _cls in ["SerialExecutor", "BatchedExecutor"]:
    _layer(f"repro.fl.executor:{_cls}", ["run_round"], "fl.executor")
_sampling = "repro.fl.sampling"
_layer(_sampling + ":ClientSampler", ["select"], "fl.sampling.select")
_layer(_sampling + ":FullParticipation", ["select", "select_indices"], "fl.sampling.select")
_layer(_sampling + ":UniformSampler", ["select_indices"], "fl.sampling.select")
for _attr in ["checkout", "writeback", "record_round"]:
    _layer("repro.fl.store:ClientStateStore", [_attr], f"fl.store.{_attr}")
_layer("repro.core.policy:CMFLPolicy", ["decide"], "core.decide", "core.decide.calls")
_layer("repro.fl.server:FLServer", ["apply_round"], "fl.server.apply_round")
_layer(
    "repro.fl.trainer:FederatedTrainer",
    ["run_round", "_begin_round", "_finish_round"],
    "fl.trainer",
)
_layer(
    "repro.fl.events.engine:AsyncFederatedTrainer",
    ["_maybe_schedule_dispatch", "_on_dispatch", "_on_arrival", "_close_round"],
    "fl.events",
)
_layer("repro.fl.events.latency:LatencyModel", ["timing"], "fl.events")
_layer("repro.fl.events.queue:EventQueue", ["push"], "fl.events")
_layer("repro.fl.events.queue:EventQueue", ["pop"], "fl.events", "fl.events.queue.pops")

# repro.obs, repro.ckpt, repro.data.
_layer(
    "repro.obs.tracer:Tracer",
    ["event", "record_span", "_open_span", "_close_span"],
    "obs.tracer.event",
)
_layer(
    "repro.obs.rollup:RoundRollup",
    ["observe_decision", "observe_task_rt", "attrs", "rt"],
    "obs.rollup",
)
_layer("repro.obs.health:HealthMonitor", ["observe_round"], "obs.health.observe_round")
_layer("repro.ckpt.checkpointer:Checkpointer", ["save"], "ckpt.save", "ckpt.saves")
for _fn in [
    "make_digit_dataset",
    "make_dialogue_corpus",
    "label_shard_partition",
    "group_partition",
    "train_test_split",
]:
    _layer("repro.experiments.workloads", [_fn], "data.build")
_layer("repro.fl.store:CyclicPartition", ["__init__"], "data.build")


def resolve(owner: str) -> Any:
    """The module or class named ``module`` or ``module:Class``."""
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class LayerTimer:
    """Self time, outermost inclusive time and call counts per key.

    Each key owns one mutable cell ``[self_s, inclusive_s, depth]`` and
    each call-count name one ``[calls]``, so a wrapped call costs two
    clock reads and a few list operations.
    """

    def __init__(self) -> None:
        self._cells: Dict[str, List[float]] = {}
        self._counts: Dict[str, List[int]] = {}
        #: Extra tallies: uploads, stacked rows, checkpoint bytes.
        self.tally: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []

    @property
    def self_s(self) -> Dict[str, float]:
        return {k: c[0] for k, c in self._cells.items()}

    @property
    def inclusive_s(self) -> Dict[str, float]:
        return {k: c[1] for k, c in self._cells.items()}

    @property
    def calls(self) -> Dict[str, int]:
        return {k: c[0] for k, c in self._counts.items()}

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Copies of every accumulator, for differencing two moments."""
        return {
            "self_s": self.self_s,
            "inclusive_s": self.inclusive_s,
            "calls": self.calls,
            "tally": dict(self.tally),
        }

    def wrap(self, fn: Callable, key: str, calls: Optional[str]) -> Callable:
        cell = self._cells.setdefault(key, [0.0, 0.0, 0])
        count = self._counts.setdefault(calls, [0]) if calls else [0]
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = perf_counter
        after = _AFTER.get(key)
        tally = self.tally

        def wrapper(*args, **kwargs):
            frame = [0.0]
            push(frame)
            cell[2] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                pop()
                cell[0] += elapsed - frame[0]
                cell[2] -= 1
                if not cell[2]:
                    cell[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                count[0] += 1
            if after is not None:
                after(tally, args, result)
            return result

        return wrapper


def _count_decision(tally, args, result) -> None:
    tally["decisions"] += 1
    tally["uploads"] += bool(result.upload)


def _count_rows(tally, args, result) -> None:
    rows = args[0].n_clients
    tally["stacked_rows"] += rows
    if rows >= 2:
        tally["stacked_rows_2plus"] += rows


def _count_ckpt_bytes(tally, args, result) -> None:
    tally["ckpt_bytes"] += result.stat().st_size


_AFTER = {
    "core.decide": _count_decision,
    "fl.batched.train_step_all": _count_rows,
    "ckpt.save": _count_ckpt_bytes,
}


@contextmanager
def traced(timer: LayerTimer) -> Iterator[LayerTimer]:
    """Wrap every function in :data:`LAYERS`, feeding ``timer``.

    Each attribute must be defined on its owner itself, so restoring is
    a plain ``setattr`` of the saved original.  Originals are restored
    in reverse order even when the block raises.
    """
    saved = []
    try:
        for owner_name, attrs, key, calls in LAYERS:
            owner = resolve(owner_name)
            for attr in attrs:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, timer.wrap(original, key, calls))
        yield timer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
