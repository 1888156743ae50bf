"""The benchmark's three workloads.

Each workload turns a workload seed into its inputs once (``prepare``)
and then builds a fresh run from those inputs as often as the benchmark
asks (``start``).  One *pass* is one closed-loop training run of
``rounds`` rounds from round 1; the benchmark repeats passes until its
time is used up, so every round a user pays, the first included, is
timed.

The program only ever sees what ``prepare`` generated from the seed.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "WORKLOADS",
    "PopulationInputs",
    "Run",
    "Workload",
    "all_seeds",
    "seed_cycle",
]


@dataclasses.dataclass
class Run:
    """One pass ready to start: the engine to drive and its trainer."""

    engine: Any  # FederatedTrainer or AsyncFederatedTrainer: has run(n)
    trainer: Any  # the FederatedTrainer (history, server, ledger, store)
    samples_per_round: int  # local-SGD samples every round processes
    target_accuracy: Optional[float]  # lower fig4 target; None if no eval

    def close(self) -> None:
        self.trainer.close()


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Recorded workload seeds (see :func:`seed_cycle`); the first is
    #: the seed the repository's experiments use.
    seeds: tuple
    #: Kept out of tuning, for confirming a later claim on unseen input.
    held_out_seed: int
    #: Rounds in one pass.
    rounds: int
    prepare: Callable[[int], Any]
    start: Callable[[Any, str], Run]


def _digits_prepare(seed: int):
    from repro.experiments.workloads import DigitsWorkload

    return DigitsWorkload("bench", seed=seed)


def _digits_start(data, scratch_dir: str) -> Run:
    from repro.core.policy import CMFLPolicy
    from repro.core.thresholds import LinearDecayThreshold

    del scratch_dir
    p = data.params
    # fig4's best CMFL config for digits: linear decay 0.58 -> 0.50.
    trainer = data.make_trainer(
        CMFLPolicy(LinearDecayThreshold(0.58, 0.50, p.rounds))
    )
    return Run(
        engine=trainer,
        trainer=trainer,
        samples_per_round=_eager_samples(trainer),
        target_accuracy=0.6,
    )


def _nwp_prepare(seed: int):
    from repro.experiments.workloads import NWPWorkload

    return NWPWorkload("bench", seed=seed)


def _nwp_start(data, scratch_dir: str) -> Run:
    from repro.core.policy import CMFLPolicy
    from repro.core.thresholds import LinearDecayThreshold

    del scratch_dir
    # The schedule spans the configured 40 rounds even though a pass
    # runs only the first few of them.
    trainer = data.make_trainer(
        CMFLPolicy(LinearDecayThreshold(0.54, 0.48, data.params.rounds))
    )
    return Run(
        engine=trainer,
        trainer=trainer,
        samples_per_round=_eager_samples(trainer),
        target_accuracy=0.2,
    )


def _eager_samples(trainer) -> int:
    """Full participation: every client runs E epochs every round."""
    return trainer.config.local_epochs * sum(
        c.n_samples for c in trainer.clients
    )


@dataclasses.dataclass(frozen=True)
class PopulationInputs:
    """make_scale_trainer synthesizes its data itself, per pass."""

    seed: int
    population: int = 1_000_000
    cohort: int = 100


def _population_prepare(seed: int) -> PopulationInputs:
    # Imported here so that set-up time covers the import.
    import repro.experiments.scale  # noqa: F401

    return PopulationInputs(seed)


def _population_start(data: PopulationInputs, scratch_dir: str) -> Run:
    from repro.ckpt import Checkpointer
    from repro.experiments.scale import make_scale_trainer
    from repro.fl.config import FLConfig
    from repro.fl.events import AsyncConfig, AsyncFederatedTrainer

    trainer = make_scale_trainer(
        data.population,
        data.cohort,
        # The FLConfig default, so a change of default shows here.
        backend=FLConfig().executor,
        seed=data.seed,
        trace=True,
        trace_sample=0.01,
    )
    trainer.checkpointer = Checkpointer(scratch_dir, every_n_rounds=20, keep=3)
    engine = AsyncFederatedTrainer(trainer, AsyncConfig(staleness_bound=2))
    # CyclicPartition gives every client the same shard size.
    per_client = trainer.store.partition.n_samples(0)
    return Run(
        engine=engine,
        trainer=trainer,
        samples_per_round=data.cohort * per_client * trainer.config.local_epochs,
        target_accuracy=None,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="digits_cnn",
            why=(
                "conv kernels dominate and every shard has the same size; "
                "shows conv and cohort-stacking work, no LSTM work"
            ),
            seeds=(7, 1, 2, 3, 4, 5, 6, 8, 9, 10),
            held_out_seed=107,
            rounds=50,
            prepare=_digits_prepare,
            start=_digits_start,
        ),
        Workload(
            name="nwp_lstm",
            why=(
                "the slowest figure: LSTM and sigmoid dominate, and ragged "
                "shard sizes defeat exact-size cohort grouping"
            ),
            seeds=(11, 1, 2, 3, 4, 5, 6, 7, 8, 9),
            held_out_seed=111,
            rounds=5,
            prepare=_nwp_prepare,
            start=_nwp_start,
        ),
        Workload(
            name="population_async",
            why=(
                "tiny compute over a 1M-client store under the async "
                "engine, so orchestration, tracing and checkpoints dominate"
            ),
            # Five seeds, so that one run covers them all even on a slow
            # host: the seeds differ in how many checkpoints they write.
            seeds=(31, 1, 2, 3, 4),
            held_out_seed=131,
            rounds=50,
            prepare=_population_prepare,
            start=_population_start,
        ),
    ]
}


def seed_cycle(workload: Workload, seed: int) -> List[int]:
    """The workload seeds a run with benchmark seed ``seed`` uses, in order.

    Pass k of the run uses entry ``k % len(seeds)``: the recorded seeds
    rotated to start at ``seeds[seed % len(seeds)]``.  A run thus
    averages over inputs instead of sampling one, and every pass has a
    reference history.
    """
    start = seed % len(workload.seeds)
    return list(workload.seeds[start:] + workload.seeds[:start])


def all_seeds(workload: Workload) -> List[int]:
    return list(workload.seeds) + [workload.held_out_seed]
