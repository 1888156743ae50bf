"""The pluggable client-execution engine (serial / process / batched).

The paper ran CMFL on a 30-node EC2 cluster where every client trains
concurrently; this module recovers that concurrency in-process.  The
trainer splits each round into a *compute* half (fan out
``FLClient.compute_update`` over the participants) and a
*decide/aggregate* half (a strictly ordered reduction back in the
trainer).  Executors own only the compute half, which is what makes
every backend bitwise-identical:

* each client draws minibatches from its **own** RNG stream, so the
  order in which clients physically run cannot change any draw;
* results are always returned **aligned with the participant list**
  (the deterministic reduction order), never in completion order;
* the process backend ships each client's RNG state to the worker and
  ships the advanced state back, so the parent's client objects remain
  the single source of randomness truth across rounds and backends.

The process backend keeps a persistent worker pool; each worker builds
a replica :class:`~repro.fl.workspace.ModelWorkspace` once from a
picklable :class:`WorkspaceSpec` and reads the per-round broadcast
parameter vector from POSIX shared memory, so the steady-state
per-round IPC is one shared-memory write plus ``n_clients`` small task
tuples and update vectors.

The batched backend trades concurrency for vectorization: same-schedule
clients are stacked into one leading client axis and the round's
compute half runs as a handful of large numpy kernels through a
:class:`~repro.fl.batched.BatchedWorkspace`, with a per-client fallback
loop for stragglers and unsupported models.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context, shared_memory
from time import monotonic
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fl.batched import BatchedWorkspace
from repro.fl.client import ClientUpdate, FLClient
from repro.fl.config import EXECUTOR_BACKENDS
from repro.fl.workspace import ModelWorkspace
from repro.nn.module import BatchedUnsupported
from repro.obs import NULL_TRACER, RoundRollup

__all__ = [
    "BatchedExecutor",
    "ClientExecutionError",
    "ClientExecutor",
    "ProcessExecutor",
    "RoundPlan",
    "SerialExecutor",
    "WorkspaceSpec",
    "make_executor",
    "resolve_worker_count",
]


@dataclass(frozen=True)
class RoundPlan:
    """The compute half of one round: what every participant must do."""

    iteration: int
    lr: float
    local_epochs: int
    batch_size: int
    #: The broadcast x_{t-1} all participants start from (read-only).
    global_params: np.ndarray
    #: This round's rollup accumulator (None when tracing is off); the
    #: executor feeds it every participant's wall-clock task timing.
    rollup: Optional[RoundRollup] = None


class ClientExecutionError(RuntimeError):
    """A client's local computation failed; carries structured context.

    Beyond the formatted message, the failure's coordinates are plain
    attributes so callers (and trace sinks) can act on them without
    parsing strings: ``client_id``, ``iteration`` (the round, when
    known), ``backend`` (which executor ran the client), ``elapsed_s``
    (time spent before the failure surfaced) and ``cause_type`` (the
    original exception's class name).
    """

    def __init__(
        self,
        client_id: int,
        message: str,
        iteration: Optional[int] = None,
        backend: Optional[str] = None,
        elapsed_s: Optional[float] = None,
        cause_type: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.client_id = client_id
        self.iteration = iteration
        self.backend = backend
        self.elapsed_s = elapsed_s
        self.cause_type = cause_type

    def context(self) -> Dict[str, Any]:
        """The structured failure coordinates, e.g. for logging."""
        return {
            "client_id": self.client_id,
            "iteration": self.iteration,
            "backend": self.backend,
            "elapsed_s": self.elapsed_s,
            "cause_type": self.cause_type,
        }


def resolve_worker_count(n_workers: int) -> int:
    """``0`` means "one worker per CPU"; negative counts are invalid."""
    if n_workers < 0:
        raise ValueError(f"n_workers must be >= 0, got {n_workers}")
    if n_workers:
        return n_workers
    return max(1, os.cpu_count() or 1)


def _rebuild_pickled_workspace(payload: bytes) -> ModelWorkspace:
    """Builder used by :meth:`WorkspaceSpec.from_workspace`."""
    return pickle.loads(payload)


@dataclass(frozen=True)
class WorkspaceSpec:
    """A picklable recipe for building replica workspaces.

    Workers cannot share the trainer's workspace (its parameter buffers
    are mutated by every ``train_step``), so the process backend builds
    one replica per worker from this spec.  ``builder`` must be a
    module-level callable (picklable by reference) returning a fresh
    :class:`~repro.fl.workspace.ModelWorkspace` when called with
    ``kwargs``.  Replica initial parameters are irrelevant — every
    ``compute_update`` starts by loading the broadcast vector.
    """

    builder: Callable[..., ModelWorkspace]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> ModelWorkspace:
        workspace = self.builder(**self.kwargs)
        if not isinstance(workspace, ModelWorkspace):
            raise TypeError(
                f"spec builder {self.builder!r} returned "
                f"{type(workspace).__name__}, expected ModelWorkspace"
            )
        return workspace

    @classmethod
    def from_workspace(cls, workspace: ModelWorkspace) -> "WorkspaceSpec":
        """Snapshot an existing workspace into a picklable spec.

        The workspace (model, loss, optimizer, metric) is serialised
        eagerly, so later mutation of the original — including the
        transient forward-pass caches layers keep — does not leak into
        replicas built from the spec.
        """
        return cls(
            builder=_rebuild_pickled_workspace,
            kwargs={"payload": pickle.dumps(workspace)},
        )


class ClientExecutor:
    """Interface: run the compute half of one synchronous round."""

    name = "base"
    #: Observability hook; the allocation-free default is replaced by
    #: the trainer's tracer at ``bind`` time when tracing is on.
    tracer = NULL_TRACER

    def bind(
        self,
        workspace: ModelWorkspace,
        clients: Sequence[FLClient],
        spec: Optional[WorkspaceSpec] = None,
        tracer=None,
    ) -> None:
        """Called once by the trainer before the first round."""
        raise NotImplementedError

    def run_round(
        self, plan: RoundPlan, participants: Sequence[FLClient]
    ) -> List[ClientUpdate]:
        """Compute one update per participant.

        The returned list is aligned with ``participants`` regardless
        of the order in which backends finish individual clients; the
        trainer's decide/aggregate reduction therefore sees the same
        sequence under every backend.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release pools/shared memory; idempotent."""

    def __enter__(self) -> "ClientExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(ClientExecutor):
    """The reference backend: clients run back to back on one workspace."""

    name = "serial"

    def __init__(self) -> None:
        self._workspace: Optional[ModelWorkspace] = None
        self.tracer = NULL_TRACER

    def bind(self, workspace, clients, spec=None, tracer=None) -> None:
        del clients, spec
        self._workspace = workspace
        self.tracer = tracer or NULL_TRACER

    def run_round(self, plan, participants):
        if self._workspace is None:
            raise RuntimeError("executor not bound to a trainer")
        _emit_broadcast_span(self.tracer, plan, rt={"shm": False})
        done = _compute_each(self, plan, participants, monotonic())
        return _replay_tasks(self.tracer, plan, participants, done)


class BatchedExecutor(ClientExecutor):
    """Cross-client vectorized backend: cohorts run as stacked kernels.

    Participants are grouped into *cohorts* by shard size — equal
    ``n_samples`` means an identical epoch/batch schedule, so their
    compute stacks into one leading client axis.  Each cohort of two or
    more runs through a :class:`~repro.fl.batched.BatchedWorkspace`:
    the round's compute half becomes a handful of large numpy ops
    (stacked GEMMs, batched im2col/einsum) whose per-client slices are
    bitwise equal to the serial path.  Singleton cohorts — and entire
    federations whose model, loss or optimizer has no batched path —
    fall back to the serial per-client loop on the bound workspace, so
    heterogeneous stragglers never break a round.

    Per-client minibatch order comes from each client's own RNG stream
    via :meth:`~repro.fl.client.FLClient.epoch_order` — the in-process
    equivalent of the process backend's RNG state round-trip: the
    parent's client objects remain the single source of randomness
    truth, and every backend consumes each stream identically.

    Observability: ``client_compute`` spans are replayed in participant
    order with ``rt`` timings from the batched kernel — a cohort's wall
    time is attributed evenly across its members and the worker label
    names the cohort (``batched-<size>``), while the deterministic
    attrs stay identical to every other backend.
    """

    name = "batched"

    def __init__(self) -> None:
        self._workspace: Optional[ModelWorkspace] = None
        #: One engine per cohort size, built lazily and kept across
        #: rounds (cohort sizes repeat under full participation).
        self._engines: Dict[int, BatchedWorkspace] = {}
        self._unsupported: Optional[str] = None
        self.tracer = NULL_TRACER

    def bind(self, workspace, clients, spec=None, tracer=None) -> None:
        del clients, spec
        self._workspace = workspace
        self._engines = {}  # stale stacks would read the old model's shapes
        self._unsupported = None
        self.tracer = tracer or NULL_TRACER

    def _engine_for(self, size: int) -> Optional[BatchedWorkspace]:
        """The cohort engine, or None when this model must fall back."""
        if self._unsupported is not None:
            return None
        engine = self._engines.get(size)
        if engine is None:
            try:
                engine = BatchedWorkspace(self._workspace, size)
            except BatchedUnsupported as exc:
                # Remember why so every later cohort skips the retry.
                self._unsupported = str(exc)
                self.tracer.metrics.counter(
                    "runtime.executor.batched_fallbacks"
                ).inc()
                return None
            self._engines[size] = engine
        return engine

    def run_round(self, plan, participants):
        if self._workspace is None:
            raise RuntimeError("executor not bound to a trainer")
        tracer = self.tracer
        _emit_broadcast_span(tracer, plan, rt={"shm": False})
        round_start = monotonic()
        # Cohorts keyed by shard size; indices keep participant order
        # both within each cohort and for the final result alignment.
        cohorts: Dict[int, List[int]] = {}
        for idx, client in enumerate(participants):
            cohorts.setdefault(client.n_samples, []).append(idx)
        # Probe batched support once with the largest multi-client
        # cohort; on BatchedUnsupported every cohort must fall back.
        multi_sizes = [len(ix) for ix in cohorts.values() if len(ix) > 1]
        batchable = bool(multi_sizes) and (
            self._engine_for(max(multi_sizes)) is not None
        )
        if not batchable:
            # Full per-client fallback, in **participant order**: with
            # a stateful optimizer the shared workspace's slot state
            # makes client order observable, and participant order is
            # the serial reference.  (The mixed path below never hits
            # this: batched support implies a stateless plain SGD, so
            # singleton stragglers can run interleaved with cohorts.)
            done = _compute_each(self, plan, participants, round_start)
            return _replay_tasks(tracer, plan, participants, done)
        done = [None] * len(participants)
        for n_samples in sorted(cohorts):
            indices = cohorts[n_samples]
            engine = self._engine_for(len(indices)) if len(indices) > 1 else None
            if engine is None:
                # Straggler path: a singleton cohort running the
                # serial reference on the bound workspace.
                stragglers = [participants[idx] for idx in indices]
                for idx, task in zip(
                    indices, _compute_each(self, plan, stragglers, round_start)
                ):
                    done[idx] = task
                continue
            cohort = [participants[idx] for idx in indices]
            start = monotonic()
            try:
                updates = self._run_cohort(engine, plan, cohort, n_samples)
            except Exception as exc:
                raise _client_failure(
                    exc, cohort[0], plan, self.name,
                    monotonic() - round_start, tracer,
                ) from exc
            per_client = (monotonic() - start) / len(cohort)
            worker = f"batched-{len(cohort)}"
            for idx, update in zip(indices, updates):
                done[idx] = (update, (0.0, per_client, worker))
        return _replay_tasks(tracer, plan, participants, done)

    @staticmethod
    def _run_cohort(
        engine: BatchedWorkspace,
        plan: RoundPlan,
        cohort: Sequence[FLClient],
        n_samples: int,
    ) -> List[ClientUpdate]:
        """One cohort's E local epochs as stacked kernels."""
        if plan.lr <= 0:
            raise ValueError("lr must be positive")
        engine.load_global(plan.global_params)
        # Each client draws its E epoch permutations from its own
        # stream — exactly the draws Dataset.batches would make
        # serially; training consumes no other client randomness, so
        # the streams end the round in the identical state.
        orders = [
            [client.epoch_order() for _ in range(plan.local_epochs)]
            for client in cohort
        ]
        losses: List[List[float]] = [[] for _ in cohort]
        for epoch in range(plan.local_epochs):
            # One stacked gather of the whole permuted epoch per
            # client; per-step minibatches are then plain slices whose
            # per-client slabs are contiguous — the same memory layout
            # Dataset.batches hands the serial path.
            x_epoch = np.stack(
                [
                    client.train_data.x[orders[ci][epoch]]
                    for ci, client in enumerate(cohort)
                ]
            )
            y_epoch = np.stack(
                [
                    client.train_data.y[orders[ci][epoch]]
                    for ci, client in enumerate(cohort)
                ]
            )
            for start in range(0, n_samples, plan.batch_size):
                sl = slice(start, start + plan.batch_size)
                batch_losses = engine.train_step_all(
                    x_epoch[:, sl], y_epoch[:, sl], plan.lr
                )
                for ci in range(len(cohort)):
                    losses[ci].append(float(batch_losses[ci]))
        stacked = engine.extract_updates(plan.global_params)
        return [
            ClientUpdate(
                client_id=client.client_id,
                update=stacked[ci].copy(),
                n_samples=client.n_samples,
                # The same flat mean over all E x B batch losses the
                # serial client computes (see FLClient.compute_update).
                train_loss=float(np.mean(losses[ci])),
            )
            for ci, client in enumerate(cohort)
        ]


# ---------------------------------------------------------------------------
# Process backend worker side.  Module-level state + functions so everything
# the pool touches is picklable by reference under any start method.

_WORKER_STATE: Optional["_WorkerState"] = None


class _WorkerState:
    """Per-worker-process state: replica workspace, clients, broadcast."""

    __slots__ = ("workspace", "clients", "shm", "global_view")

    def __init__(self, workspace, clients, shm, global_view) -> None:
        self.workspace = workspace
        self.clients = clients
        self.shm = shm
        self.global_view = global_view


def _init_worker(
    spec: WorkspaceSpec,
    clients: Sequence[FLClient],
    shm_name: str,
    n_params: int,
) -> None:
    global _WORKER_STATE
    shm = shared_memory.SharedMemory(name=shm_name)
    view = np.ndarray((n_params,), dtype=np.float64, buffer=shm.buf)
    _WORKER_STATE = _WorkerState(
        workspace=spec.build(),
        clients={c.client_id: c for c in clients},
        shm=shm,
        global_view=view,
    )


def _run_client_task(
    client_id: int,
    rng_state: Dict[str, Any],
    lr: float,
    local_epochs: int,
    batch_size: int,
    submit_ts: float,
):
    """Run one client in the worker.

    Returns ``(update, advanced rng state, timing)`` where timing is
    ``(queue_wait, dur, worker)``.  Queue wait is ``start - submit_ts``;
    both ends are ``time.monotonic`` readings, which on Linux share
    CLOCK_MONOTONIC across the parent and its worker processes.
    """
    start = monotonic()
    state = _WORKER_STATE
    if state is None:
        raise RuntimeError("worker pool was not initialised")
    client = state.clients[client_id]
    client.set_rng_state(rng_state)
    # The parent only writes the shared broadcast between rounds, while
    # no task is in flight, so reading the view directly is safe and
    # saves a copy; compute_update never mutates its global_params.
    result = client.compute_update(
        state.workspace,
        state.global_view,
        lr=lr,
        local_epochs=local_epochs,
        batch_size=batch_size,
    )
    timing = (start - submit_ts, monotonic() - start, f"pid-{os.getpid()}")
    return result, client.rng_state(), timing


class ProcessExecutor(ClientExecutor):
    """A persistent ``multiprocessing`` pool of replica workspaces.

    Startup (lazy, on the first round): a shared-memory block sized
    ``n_params`` float64s is created and every worker builds a replica
    workspace from the picklable spec plus its own copy of the client
    shards.  Steady state, per round: the parent writes the broadcast
    vector into shared memory once, submits ``(client_id, rng_state,
    hyperparams)`` tuples, and workers stream ``ClientUpdate``s back as
    they finish; the parent restores each returned RNG state into its
    own client object and re-aligns results with the participant order.

    Clients are snapshotted into the workers when the pool starts;
    swapping ``trainer.clients`` entries afterwards cannot reach the
    workers, so ``run_round`` refuses participants that are not the
    exact objects it was bound to (re-``bind`` to pick up a changed
    federation — binding tears any running pool down first).
    """

    name = "process"

    def __init__(
        self, n_workers: int = 0, mp_method: Optional[str] = None
    ) -> None:
        self.n_workers = resolve_worker_count(n_workers)
        self.mp_method = mp_method
        self._spec: Optional[WorkspaceSpec] = None
        self._clients: Optional[List[FLClient]] = None
        self._by_id: Dict[int, FLClient] = {}
        self._n_params: Optional[int] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._shm: Optional[shared_memory.SharedMemory] = None
        self.tracer = NULL_TRACER

    def bind(self, workspace, clients, spec=None, tracer=None) -> None:
        self.close()
        self._spec = spec or WorkspaceSpec.from_workspace(workspace)
        self._clients = list(clients)
        self._by_id = {c.client_id: c for c in self._clients}
        self._n_params = workspace.n_params
        self.tracer = tracer or NULL_TRACER

    def _ensure_started(self) -> None:
        if self._pool is not None:
            return
        if self._spec is None or self._n_params is None:
            raise RuntimeError("executor not bound to a trainer")
        self._shm = shared_memory.SharedMemory(
            create=True, size=self._n_params * np.dtype(np.float64).itemsize
        )
        self._pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=get_context(self.mp_method),
            initializer=_init_worker,
            initargs=(self._spec, self._clients, self._shm.name, self._n_params),
        )
        self.tracer.metrics.counter("runtime.executor.pool_starts").inc()

    def run_round(self, plan, participants):
        self._ensure_started()
        tracer = self.tracer
        # The workers hold a snapshot of the bound client objects, so a
        # participant that is not that exact object (new id, or an entry
        # swapped in after binding) would silently run stale code/data.
        for client in participants:
            if self._by_id.get(client.client_id) is not client:
                error = ClientExecutionError(
                    client.client_id,
                    f"client {client.client_id} is not among the objects "
                    "this process pool was started with; re-bind() the "
                    "executor to pick up the changed federation",
                    iteration=plan.iteration,
                    backend=self.name,
                    cause_type="IdentityMismatch",
                )
                _trace_client_error(tracer, error)
                raise error
        shm_start = monotonic()
        broadcast = np.ndarray(
            (self._n_params,), dtype=np.float64, buffer=self._shm.buf
        )
        np.copyto(broadcast, np.asarray(plan.global_params, dtype=np.float64))
        del broadcast  # release the exported shm buffer view immediately
        _emit_broadcast_span(
            tracer, plan, rt={"shm": True, "dur": monotonic() - shm_start}
        )
        round_start = monotonic()
        futures = [
            self._pool.submit(
                _run_client_task,
                client.client_id,
                client.rng_state(),
                plan.lr,
                plan.local_epochs,
                plan.batch_size,
                monotonic(),
            )
            for client in participants
        ]
        payloads = _collect_in_order(
            futures, participants,
            plan=plan, backend=self.name, tracer=tracer, started=round_start,
        )
        done = []
        for client, (result, rng_state, timing) in zip(participants, payloads):
            client.set_rng_state(rng_state)
            done.append((result, timing))
        return _replay_tasks(tracer, plan, participants, done)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None

    def __repr__(self) -> str:
        return f"ProcessExecutor(n_workers={self.n_workers})"


def _emit_broadcast_span(tracer, plan: RoundPlan, rt: Dict[str, Any]) -> None:
    """The per-round parameter broadcast as an already-timed span.

    For the in-process backends the broadcast is a shared read-only
    array (``dur`` 0); the process backend measures its shared-memory
    copy.  ``shm``/``dur`` are runtime data — the deterministic attrs
    are the same on every backend.
    """
    if not tracer.enabled:
        return
    tracer.record_span(
        "broadcast",
        attrs={
            "iteration": plan.iteration,
            "n_params": int(np.asarray(plan.global_params).size),
        },
        rt=rt,
    )


def _emit_task_span(
    tracer, plan: RoundPlan, client: FLClient, timing: Tuple[float, float, str]
) -> None:
    """Replay one client task as a ``client_compute`` span.

    Executors time tasks wherever the work physically ran, then call
    this on the coordinating thread in participant order, so the span
    sequence is deterministic while ``rt`` keeps the real queue wait,
    duration and worker identity.

    Per-client spans are head-sampled (``FLConfig.trace_sample``):
    every task still feeds the runtime histogram and the round rollup,
    but only sampled (round, client) pairs emit an individual span.
    """
    if not tracer.enabled:
        return
    queue_wait, dur, worker = timing
    tracer.metrics.histogram("runtime.executor.queue_wait").observe(queue_wait)
    if plan.rollup is not None:
        plan.rollup.observe_task_rt(client.client_id, dur, queue_wait)
    if not tracer.span_sampled(plan.iteration, client.client_id):
        return
    tracer.record_span(
        "client_compute",
        attrs={"iteration": plan.iteration, "client_id": client.client_id},
        rt={"queue_wait": queue_wait, "dur": dur, "worker": worker},
    )


def _compute_each(
    executor: ClientExecutor,
    plan: RoundPlan,
    clients: Sequence[FLClient],
    round_start: float,
) -> List[Tuple[ClientUpdate, Tuple[float, float, str]]]:
    """Run ``clients`` one after another on the executor's workspace.

    The in-process per-client path, in the given (participant) order:
    with a stateful optimizer the shared workspace's slot state makes
    client order observable.  Returns ``(update, timing)`` pairs for
    :func:`_replay_tasks`; the first failure is raised as a
    :class:`ClientExecutionError` before any span is emitted, so a
    failing round traces the same on every backend.
    """
    done = []
    for client in clients:
        start = monotonic()
        try:
            update = client.compute_update(
                executor._workspace,
                plan.global_params,
                lr=plan.lr,
                local_epochs=plan.local_epochs,
                batch_size=plan.batch_size,
            )
        except Exception as exc:
            raise _client_failure(
                exc, client, plan, executor.name,
                monotonic() - round_start, executor.tracer,
            ) from exc
        done.append((update, (0.0, monotonic() - start, "main")))
    return done


def _replay_tasks(
    tracer,
    plan: RoundPlan,
    participants: Sequence[FLClient],
    done: Sequence[Tuple[ClientUpdate, Tuple[float, float, str]]],
) -> List[ClientUpdate]:
    """Emit every finished task's span in participant order; return
    the updates aligned with ``participants``."""
    for client, (_, timing) in zip(participants, done):
        _emit_task_span(tracer, plan, client, timing)
    return [update for update, _ in done]


def _trace_client_error(tracer, error: ClientExecutionError) -> None:
    """Emit a failure as a ``client_error`` point event."""
    if not tracer.enabled:
        return
    tracer.event(
        "client_error",
        attrs={
            "client_id": error.client_id,
            "iteration": error.iteration,
            "error": error.cause_type or type(error).__name__,
        },
        rt={"elapsed": error.elapsed_s, "backend": error.backend},
    )


def _client_failure(
    exc: BaseException,
    client: FLClient,
    plan: Optional[RoundPlan],
    backend: str,
    elapsed: Optional[float],
    tracer,
) -> ClientExecutionError:
    """Wrap a client failure with its structured context + trace event."""
    error = ClientExecutionError(
        client.client_id,
        f"client {client.client_id} failed during local "
        f"computation: {type(exc).__name__}: {exc}",
        iteration=plan.iteration if plan is not None else None,
        backend=backend,
        elapsed_s=elapsed,
        cause_type=type(exc).__name__,
    )
    _trace_client_error(tracer, error)
    return error


def _collect_in_order(
    futures: Sequence[Future],
    participants: Sequence[FLClient],
    plan: Optional[RoundPlan] = None,
    backend: str = "?",
    tracer=NULL_TRACER,
    started: Optional[float] = None,
) -> List[Any]:
    """Resolve futures in participant order, naming the failing client.

    Any failure — an exception raised inside a client's local training
    or a worker process dying outright (``BrokenProcessPool``) — is
    re-raised as :class:`ClientExecutionError` carrying the client id
    plus round/backend/elapsed context, so a crashed worker surfaces
    immediately instead of hanging the round.  Remaining futures are
    cancelled best-effort.
    """
    results: List[Any] = []
    for client, future in zip(participants, futures):
        try:
            results.append(future.result())
        except Exception as exc:
            for pending in futures:
                pending.cancel()
            elapsed = monotonic() - started if started is not None else None
            raise _client_failure(
                exc, client, plan, backend, elapsed, tracer
            ) from exc
    return results


def make_executor(
    backend: Union[str, ClientExecutor],
    n_workers: int = 0,
    mp_method: Optional[str] = None,
) -> ClientExecutor:
    """Build an executor from a backend name (or pass one through)."""
    if isinstance(backend, ClientExecutor):
        return backend
    if backend == "serial":
        return SerialExecutor()
    if backend == "process":
        return ProcessExecutor(n_workers, mp_method=mp_method)
    if backend == "batched":
        # In-process and cohort-stacked: worker knobs do not apply.
        return BatchedExecutor()
    raise ValueError(
        f"unknown executor backend {backend!r}; choices: {EXECUTOR_BACKENDS}"
    )
