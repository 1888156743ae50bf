"""The client-state store: parity, laziness, checkpointing."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.feedback import pack_signs, packed_sign_nbytes, unpack_signs
from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.data.dataset import Dataset
from repro.data.partition import dirichlet_partition
from repro.fl.client import FLClient
from repro.fl.config import FLConfig
from repro.fl.sampling import UniformSampler
from repro.fl.store import (
    ClientStateStore,
    CyclicPartition,
    ExplicitPartition,
    IndexedPartition,
    StoreClient,
    _INITIAL_ROWS,
)
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.optimizers import SGD
from repro.nn.schedules import ConstantLR
from repro.utils.rng import child_rngs


def _dataset(rows=60, features=4, seed=0):
    rngs = child_rngs(seed, 2)
    w = rngs[0].normal(size=features)
    x = rngs[1].normal(size=(rows, features))
    y = (x @ w > 0).astype(np.int64)
    return Dataset(x, y)


def _clients(n=8, per=12, seed=0):
    rngs = child_rngs(seed, n + 2)
    w = rngs[0].normal(size=4)
    out = []
    for i in range(n):
        x = rngs[1].normal(size=(per, 4))
        y = (x @ w > 0).astype(np.int64)
        out.append(FLClient(i, Dataset(x, y), rng=rngs[2 + i]))
    return out


def _workspace(seed=3, lr=0.5):
    model = make_logistic_regression(4, rng=seed)
    return ModelWorkspace(
        model, SigmoidBinaryCrossEntropy(), SGD(model.parameters(), lr)
    )


def _config(rounds=5, backend="serial"):
    return FLConfig(
        rounds=rounds,
        local_epochs=2,
        batch_size=6,
        lr=ConstantLR(0.3),
        executor=backend,
    )


def _history_digest(trainer):
    from repro.experiments.timing import history_digest

    return history_digest(trainer)


class TestPackedSigns:
    def test_round_trip_equals_sign(self):
        rng = np.random.default_rng(0)
        for n in (1, 7, 8, 9, 64, 1000):
            v = rng.normal(size=n)
            v[rng.random(n) < 0.3] = 0.0
            assert np.array_equal(
                unpack_signs(pack_signs(v), n), np.sign(v)
            )

    def test_parity_with_unpacked_feedback_path(self):
        # The store records packed signs of u_bar; CMFL's relevance uses
        # np.sign(u_bar).  The packed record must reproduce that vector
        # exactly, zeros included.
        rng = np.random.default_rng(1)
        u_bar = rng.normal(size=129)
        u_bar[::7] = 0.0
        unpacked_signs = np.sign(u_bar)
        packed = pack_signs(u_bar)
        assert np.array_equal(unpack_signs(packed, 129), unpacked_signs)

    def test_memory_is_two_bits_per_param(self):
        n = 100_000
        packed = packed_sign_nbytes(n)
        assert packed == 2 * ((n + 7) // 8)
        # ~32x below a float64 sign vector.
        assert packed * 31 < n * 8

    def test_errors(self):
        with pytest.raises(ValueError):
            pack_signs(np.array([]))
        with pytest.raises(ValueError):
            packed_sign_nbytes(0)
        with pytest.raises(ValueError):
            unpack_signs(np.zeros(4, dtype=np.uint8), 100)


class TestPartitions:
    def test_cyclic_no_wrap_is_view(self):
        data = _dataset(rows=50)
        part = CyclicPartition(data, n_clients=1000, samples_per_client=10)
        d0 = part.materialize(0)
        assert np.shares_memory(d0.x, data.x)
        assert np.array_equal(d0.x, data.x[:10])

    def test_cyclic_wraps_around(self):
        data = _dataset(rows=50)
        part = CyclicPartition(data, n_clients=1000, samples_per_client=10)
        # client 4 starts at row 40 and needs 10 rows -> no wrap;
        # client 104 starts at (104*10) % 50 = 40 -> same shard.
        d = part.materialize(4)
        assert np.array_equal(d.x, data.x[40:50])
        part7 = CyclicPartition(
            data, n_clients=1000, samples_per_client=10, stride=7
        )
        d = part7.materialize(7)  # start 49, wraps 9 rows
        assert np.array_equal(
            d.x, np.concatenate([data.x[49:], data.x[:9]])
        )
        assert part7.n_samples(7) == 10

    def test_cyclic_validates(self):
        data = _dataset(rows=50)
        with pytest.raises(ValueError):
            CyclicPartition(data, n_clients=0, samples_per_client=10)
        with pytest.raises(ValueError):
            CyclicPartition(data, n_clients=10, samples_per_client=51)
        with pytest.raises(ValueError):
            CyclicPartition(data, 10, 10, stride=0)

    def test_indexed_matches_subset(self):
        data = _dataset(rows=60)
        parts = dirichlet_partition(
            np.asarray(data.y), n_clients=6, alpha=0.5, rng=7
        )
        ip = IndexedPartition(data, parts)
        assert len(ip) == 6
        for i, p in enumerate(parts):
            assert ip.n_samples(i) == len(p)
            sub = data.subset(p)
            got = ip.materialize(i)
            assert np.array_equal(got.x, sub.x)
            assert np.array_equal(got.y, sub.y)

    def test_indexed_rejects_empty_client(self):
        data = _dataset(rows=10)
        with pytest.raises(ValueError):
            IndexedPartition(
                data, [np.array([0, 1]), np.array([], dtype=np.int64)]
            )

    def test_explicit_serves_given_datasets(self):
        ds = [_dataset(rows=5, seed=s) for s in range(3)]
        ep = ExplicitPartition(ds)
        assert len(ep) == 3
        assert ep.materialize(1) is ds[1]
        assert ep.n_samples(2) == 5


class TestStoreCore:
    def _store(self, population=10_000, seed=11):
        data = _dataset(rows=60)
        part = CyclicPartition(data, population, samples_per_client=10)
        return ClientStateStore(population, part, seed=seed)

    def test_one_row_per_touched_client(self):
        from repro.obs import MetricsRegistry

        footprints = []
        for population in (10_000, 1_000_000):
            store = self._store(population=population)
            store.metrics = MetricsRegistry()
            assert store.materialized_shards == 0
            assert store.nbytes == 0
            views = store.checkout([0, 63, 64, 9_999])
            store.writeback(views)
            store.record_round(1, [0], [9_999])
            assert store.materialized_shards == 4
            assert store.metrics.counter("store.rows_materialized").value == 4
            footprints.append(store.nbytes)
        assert footprints[0] == footprints[1] > 0

    def test_streams_are_pure_functions_of_seed_and_index(self):
        # Touch order must not change any client's draws.
        a = self._store()
        b = self._store()
        va = a.checkout([5])
        a.writeback(va)
        va = a.checkout([5, 7_000])
        vb = b.checkout([7_000])
        assert (
            va[1].rng_state()["state"] == vb[0].rng_state()["state"]
        )
        a.writeback(va)
        b.writeback(vb)

    def test_writeback_resumes_stream_bitwise(self):
        store = self._store()
        ref = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=(11, 42)))
        )
        for _ in range(3):
            (view,) = store.checkout([42])
            assert view._rng.random() == ref.random()
            store.writeback([view])

    def test_checkout_validates(self):
        store = self._store()
        with pytest.raises(IndexError):
            store.checkout([10_000])
        views = store.checkout([3])
        with pytest.raises(RuntimeError):
            store.checkout([3])  # already out
        store.writeback(views)
        with pytest.raises(RuntimeError):
            store.writeback(views)  # already retired

    def test_retired_view_refuses_compute(self):
        store = self._store()
        (view,) = store.checkout([1])
        store.writeback([view])
        with pytest.raises(RuntimeError):
            view.compute_update(None, np.zeros(5), lr=0.1,
                                local_epochs=1, batch_size=2)

    def test_snapshot_refused_mid_round(self):
        store = self._store()
        views = store.checkout([1])
        with pytest.raises(RuntimeError):
            store.state_arrays()
        with pytest.raises(RuntimeError):
            store.manifest()
        store.writeback(views)
        assert "population" in store.manifest()

    def test_state_arrays_round_trip(self):
        store = self._store()
        views = store.checkout([2, 700])
        for v in views:
            v._rng.random(5)
        store.writeback(views)
        manifest = store.manifest()
        arrays = {k: v.copy() for k, v in store.state_arrays().items()}
        other = self._store()
        other.load_state(manifest, arrays)
        (a,) = store.checkout([700])
        (b,) = other.checkout([700])
        assert a._rng.random() == b._rng.random()
        store.writeback([a])
        other.writeback([b])

    def test_load_state_validates_identity(self):
        store = self._store()
        views = store.checkout([0])
        store.writeback(views)
        manifest = store.manifest()
        arrays = store.state_arrays()
        with pytest.raises(ValueError):
            self._store(seed=12).load_state(manifest, arrays)
        smaller = ClientStateStore(
            5_000, CyclicPartition(_dataset(rows=60), 5_000, 10), seed=11
        )
        with pytest.raises(ValueError):
            smaller.load_state(manifest, arrays)

    def test_load_state_validates_table(self):
        store = self._store()
        store.writeback(store.checkout([4, 9]))
        manifest = store.manifest()
        good = {k: v.copy() for k, v in store.state_arrays().items()}
        bad_tables = [
            {**good, "rng": good["rng"][:1]},  # fewer rng rows than indices
            {**good, "stats": good["stats"][:, :2]},  # wrong stats width
            {k: v for k, v in good.items() if k != "stats"},  # member gone
            {**good, "feedback": np.zeros((2, 2), np.uint8)},  # no tracking
            {**good, "index": np.array([4, 4])},  # repeated client
            {**good, "index": np.array([4, 10_000])},  # out of range
            {**good, "index": np.array([-1, 9])},  # negative
            {**good, "index": np.array([4.0, 9.0])},  # not integers
        ]
        for arrays in bad_tables:
            fresh = self._store()
            with pytest.raises((KeyError, ValueError)):
                fresh.load_state(manifest, arrays)
            assert fresh.materialized_shards == 0
        fresh = self._store()
        fresh.load_state(manifest, good)
        assert fresh.materialized_shards == 2

    def test_from_clients_requires_dense_ids(self):
        clients = _clients(3)
        clients[2] = FLClient(
            9, clients[2].train_data, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError):
            ClientStateStore.from_clients(clients)

    def test_record_round_stats_and_feedback(self):
        data = _dataset(rows=60)
        store = ClientStateStore(
            100,
            CyclicPartition(data, 100, 10),
            track_feedback=True,
            n_params=9,
        )
        u_bar = np.array([0.5, -1.0, 0.0, 2.0, -3.0, 0.0, 1.0, 1.0, -1.0])
        store.record_round(3, [4, 5], [6], feedback_sign=u_bar)
        assert store.participation_stats(4) == {
            "participations": 1, "uploads": 1, "last_round": 3,
        }
        assert store.participation_stats(6) == {
            "participations": 1, "uploads": 0, "last_round": 3,
        }
        assert store.participation_stats(7)["participations"] == 0
        assert np.array_equal(store.feedback_signs(5), np.sign(u_bar))
        # Never recorded, whether untouched or only checked out: None.
        assert store.feedback_signs(99) is None
        store.writeback(store.checkout([7]))
        assert store.feedback_signs(7) is None
        with pytest.raises(ValueError):
            store.record_round(4, [7], [])  # tracking needs the signs
        plain = ClientStateStore(100, CyclicPartition(data, 100, 10))
        with pytest.raises(ValueError):
            plain.feedback_signs(0)

    def test_constructor_validates(self):
        data = _dataset(rows=60)
        part = CyclicPartition(data, 10, 10)
        with pytest.raises(ValueError):
            ClientStateStore(0, part)
        with pytest.raises(ValueError):
            ClientStateStore(11, part)  # partition too small
        with pytest.raises(ValueError):
            ClientStateStore(10, part, track_feedback=True)  # no n_params


class TestTrainerParity:
    """Store-backed lazy views vs eager FLClient objects: same bits."""

    def _eager_trainer(self, backend="serial", rounds=5):
        trainer = FederatedTrainer(
            _workspace(),
            _clients(),
            CMFLPolicy(InverseSqrtThreshold(0.8)),
            _config(backend=backend),
        )
        trainer.run(rounds)
        return trainer

    def _store_trainer(self, backend="serial", rounds=5, run=True):
        store = ClientStateStore.from_clients(_clients())
        trainer = FederatedTrainer(
            _workspace(),
            store,
            CMFLPolicy(InverseSqrtThreshold(0.8)),
            _config(backend=backend),
        )
        if run:
            trainer.run(rounds)
        return trainer

    def test_serial_digest_identical(self):
        assert _history_digest(self._eager_trainer("serial")) == (
            _history_digest(self._store_trainer("serial"))
        )

    def test_batched_digest_identical(self):
        assert _history_digest(self._eager_trainer("serial")) == (
            _history_digest(self._store_trainer("batched"))
        )

    def test_store_with_sampler(self):
        store = ClientStateStore.from_clients(_clients())
        trainer = FederatedTrainer(
            _workspace(),
            store,
            CMFLPolicy(InverseSqrtThreshold(0.8)),
            _config(),
            sampler=UniformSampler(0.5, rng=2),
        )
        history = trainer.run(4)
        assert all(r.n_clients == 4 for r in history)
        eager = FederatedTrainer(
            _workspace(),
            _clients(),
            CMFLPolicy(InverseSqrtThreshold(0.8)),
            _config(),
            sampler=UniformSampler(0.5, rng=2),
        )
        eager.run(4)
        assert _history_digest(trainer) == _history_digest(eager)

    def test_process_backend_rejected(self):
        store = ClientStateStore.from_clients(_clients())
        with pytest.raises(ValueError):
            FederatedTrainer(
                _workspace(),
                store,
                CMFLPolicy(InverseSqrtThreshold(0.8)),
                _config(backend="process"),
            )

    def test_store_counters_account_cohorts(self):
        from repro.obs import MemorySink, Tracer

        store = ClientStateStore.from_clients(_clients())
        trainer = FederatedTrainer(
            _workspace(),
            store,
            CMFLPolicy(InverseSqrtThreshold(0.8)),
            _config(),
            tracer=Tracer(sinks=[MemorySink()]),
        )
        trainer.run(3)
        # from_clients made every row before the trainer bound the
        # metrics registry, so only the checkout traffic is counted.
        assert store.metrics.counter("store.checkouts").value == 8 * 3
        assert "store.rows_materialized" not in store.metrics
        assert store.materialized_shards == 8
        trainer.close()

    def test_stats_reflect_cmfl_decisions(self):
        trainer = self._store_trainer(rounds=5)
        uploads = sum(
            trainer.store.participation_stats(i)["uploads"]
            for i in range(8)
        )
        participations = sum(
            trainer.store.participation_stats(i)["participations"]
            for i in range(8)
        )
        assert participations == 8 * 5
        assert uploads == sum(r.n_uploaded for r in trainer.history)


class TestStoreCheckpoint:
    """Crash/resume with the store's rows stays bitwise-identical."""

    def _build(self):
        store = ClientStateStore.from_clients(_clients())
        return FederatedTrainer(
            _workspace(),
            store,
            CMFLPolicy(InverseSqrtThreshold(0.8)),
            _config(rounds=8),
            sampler=UniformSampler(0.5, rng=5),
        )

    def test_resume_is_bitwise_identical(self, tmp_path):
        reference = self._build()
        reference.run(8)
        expected = _history_digest(reference)

        crashed = self._build()
        crashed.run(4)
        path = crashed.save_checkpoint(tmp_path / "store.ckpt")
        resumed = FederatedTrainer.restore(
            path,
            _workspace(),
            ClientStateStore.from_clients(_clients()),
            CMFLPolicy(InverseSqrtThreshold(0.8)),
            _config(rounds=8),
            sampler=UniformSampler(0.5, rng=5),
        )
        resumed.run(4)
        assert _history_digest(resumed) == expected
        assert resumed.store.materialized_shards == (
            crashed.store.materialized_shards
        )

    def test_store_checkpoint_mismatch_fails_loudly(self, tmp_path):
        from repro.ckpt.format import CheckpointError

        trainer = self._build()
        trainer.run(2)
        path = trainer.save_checkpoint(tmp_path / "store.ckpt")
        with pytest.raises(CheckpointError):
            FederatedTrainer.restore(
                path,
                _workspace(),
                _clients(),  # eager federation, store-backed checkpoint
                CMFLPolicy(InverseSqrtThreshold(0.8)),
                _config(rounds=8),
                sampler=UniformSampler(0.5, rng=5),
            )

    # -- population stores: a cohort drawn from many enrolled clients --

    def _population_build(self, tmp_path=None, seed=11, optimizer=SGD):
        model = make_logistic_regression(4, rng=3)
        workspace = ModelWorkspace(
            model,
            SigmoidBinaryCrossEntropy(),
            optimizer(model.parameters(), 0.5),
        )
        store = ClientStateStore(
            1_000, CyclicPartition(_dataset(rows=60), 1_000, 10), seed=seed
        )
        config = FLConfig(
            rounds=8,
            local_epochs=1,
            batch_size=5,
            lr=ConstantLR(0.3),
            trace_path=None if tmp_path is None else str(tmp_path / "t.jsonl"),
        )
        return workspace, store, config

    def _population_trainer(self, **kwargs):
        workspace, store, config = self._population_build(**kwargs)
        return FederatedTrainer(
            workspace,
            store,
            CMFLPolicy(InverseSqrtThreshold(0.8)),
            config,
            sampler=UniformSampler(count=10, rng=5),
        )

    def _population_restore(self, path, **kwargs):
        workspace, store, config = self._population_build(**kwargs)
        return FederatedTrainer.restore(
            path,
            workspace,
            store,
            CMFLPolicy(InverseSqrtThreshold(0.8)),
            config,
            sampler=UniformSampler(count=10, rng=5),
        )

    def test_resumed_checkpoint_store_equals_uninterrupted(self, tmp_path):
        from repro.ckpt import read_checkpoint

        reference = self._population_trainer()
        reference.run(8)
        ref = read_checkpoint(reference.save_checkpoint(tmp_path / "ref.ckpt"))
        crashed = self._population_trainer()
        crashed.run(4)
        resumed = self._population_restore(
            crashed.save_checkpoint(tmp_path / "crash.ckpt")
        )
        resumed.run(4)
        got = read_checkpoint(resumed.save_checkpoint(tmp_path / "res.ckpt"))
        assert got.manifest["store"] == ref.manifest["store"]
        store_keys = sorted(k for k in ref.arrays if k.startswith("store/"))
        assert store_keys == ["store/index", "store/rng", "store/stats"]
        assert store_keys == sorted(
            k for k in got.arrays if k.startswith("store/")
        )
        for key in store_keys:
            assert np.array_equal(got.arrays[key], ref.arrays[key]), key
        assert _history_digest(resumed) == _history_digest(reference)

    @pytest.mark.parametrize(
        "mismatch",
        [
            # A momentum checkpoint restored into an SGD federation.
            {"optimizer": SGD},
            # A store checkpoint restored into a store of another seed.
            {"seed": 12},
        ],
        ids=["optimizer", "store_seed"],
    )
    def test_rejected_restore_leaves_trace_untouched(
        self, tmp_path, monkeypatch, mismatch
    ):
        import repro.ckpt.state
        from repro.ckpt.format import CheckpointError
        from repro.nn.optimizers import Momentum

        optimizer = Momentum if "optimizer" in mismatch else SGD
        trainer = self._population_trainer(
            tmp_path=tmp_path, optimizer=optimizer
        )
        trainer.run(2)
        path = trainer.save_checkpoint(tmp_path / "store.ckpt")
        trainer.run(1)  # events past the checkpoint a resume would cut
        trainer.close()
        trace = tmp_path / "t.jsonl"
        before = trace.read_bytes()
        opened = []
        monkeypatch.setattr(
            repro.ckpt.state, "JsonlSink", lambda *a, **k: opened.append(a)
        )
        kwargs = {"optimizer": optimizer, "seed": 11, **mismatch}
        with pytest.raises(CheckpointError):
            self._population_restore(path, tmp_path=tmp_path, **kwargs)
        assert trace.read_bytes() == before
        assert opened == []

    def test_million_client_checkpoint_has_four_store_members(self, tmp_path):
        from repro.ckpt import read_checkpoint
        from repro.experiments.scale import make_scale_trainer

        trainer = make_scale_trainer(1_000_000, 250)
        trainer.run(5)
        assert trainer.store.materialized_shards >= 1_000
        ckpt = read_checkpoint(trainer.save_checkpoint(tmp_path / "1m.ckpt"))
        members = [k for k in ckpt.arrays if k.startswith("store/")]
        assert len(members) <= 4, members
        assert len(ckpt.arrays["store/index"]) == (
            trainer.store.materialized_shards
        )
        trainer.close()

    def test_v1_checkpoint_is_refused(self, tmp_path, monkeypatch):
        import repro.ckpt.format
        from repro.ckpt.format import CheckpointError

        trainer = self._population_trainer()
        trainer.run(2)
        with monkeypatch.context() as patch:
            patch.setattr(repro.ckpt.format, "CKPT_SCHEMA", "repro-ckpt/v1")
            path = trainer.save_checkpoint(tmp_path / "v1.ckpt")
        with pytest.raises(CheckpointError, match="repro-ckpt/v1"):
            self._population_restore(path)


# -- property: any interleaving, any snapshot point, same rows -------------

_ROUNDS = st.lists(
    st.tuples(
        st.sets(st.integers(0, 99_999), min_size=17, max_size=40),
        st.booleans(),  # writeback before record_round (the async order)
        st.integers(0, 3),  # draws each view makes
    ),
    min_size=4,
    max_size=7,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(rounds=_ROUNDS, snapshot_at=st.integers(0, 6), data=st.data())
def test_snapshot_anywhere_matches_uninterrupted(rounds, snapshot_at, data):
    def build():
        return ClientStateStore(
            100_000,
            CyclicPartition(_dataset(rows=60), 100_000, 10),
            seed=7,
            track_feedback=True,
            n_params=5,
        )

    touched = set().union(*(cohort for cohort, _, _ in rounds))
    # Grow past the table's first allocation at least once.
    assume(len(touched) > _INITIAL_ROWS)
    plain, snapped = build(), build()
    for t, (cohort, writeback_first, draws) in enumerate(rounds):
        if t == snapshot_at:
            arrays = {k: v.copy() for k, v in snapped.state_arrays().items()}
            snapped = build()
            snapped.load_state(plain.manifest(), arrays)
        cohort = sorted(cohort)
        uploaded = data.draw(st.sets(st.sampled_from(cohort)))
        skipped = [i for i in cohort if i not in uploaded]
        u_bar = np.array([1.0, -1.0, 0.0, float(t), -float(t)])
        # Some clients are recorded without ever being checked out.
        extra = data.draw(st.sets(st.integers(0, 99_999), max_size=3))
        extra -= set(cohort)
        for store in (plain, snapped):
            views = store.checkout(cohort)
            for view in views:
                view._rng.random(draws)
            if writeback_first:
                store.writeback(views)
            store.record_round(
                t, sorted(uploaded), skipped + sorted(extra), feedback_sign=u_bar
            )
            if not writeback_first:
                store.writeback(views)
    for key, array in plain.state_arrays().items():
        assert np.array_equal(snapped.state_arrays()[key], array), key
    assert plain.nbytes == snapped.nbytes
    clients = sorted(touched)
    for index in clients[:: max(1, len(clients) // 20)]:
        assert plain.participation_stats(index) == (
            snapped.participation_stats(index)
        )
    a, b = plain.checkout(clients), snapped.checkout(clients)
    for va, vb in zip(a, b):
        assert va.rng_state() == vb.rng_state()
