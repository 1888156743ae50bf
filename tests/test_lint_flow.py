"""Flow-rule tests: each rule family must fire on seeded violations.

Synthetic cases run on in-memory trees; the mutation tests inject a
seeded defect into the *real* ``src/repro`` sources (via the
analyzer's ``file_sources`` override, no disk writes) and assert the
whole-program pass catches exactly it — proving the tier-1 gate would
bite on a real regression.
"""

from pathlib import Path

from repro.lint.project import ProjectAnalyzer
from repro.lint import load_config

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def _analyze(tmp_path, sources, config=None):
    for package_path, source in sources.items():
        path = tmp_path / "repro" / package_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    analyzer = ProjectAnalyzer(config=config, rules=())
    return ProjectAnalyzer(config=config, rules=()).analyze(
        [str(tmp_path / "repro")]
    ), analyzer


def _rules(result):
    return sorted({v.rule for v in result.violations})


# -- rng-taint ---------------------------------------------------------------


def test_rng_taint_module_level_assign(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "import numpy as np\n"
                "GEN = np.random.default_rng(0)\n"
            )
        },
    )
    assert _rules(result) == ["rng-taint"]
    assert "module-level name 'GEN'" in result.violations[0].message


def test_rng_taint_propagates_across_modules(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "util.py": (
                "import numpy as np\n"
                "def make_rng(seed):\n"
                "    gen = np.random.default_rng(seed)\n"
                "    return gen\n"
            ),
            "app.py": (
                "from repro.util import make_rng\n"
                "SHARED = make_rng(7)\n"
            ),
        },
    )
    assert _rules(result) == ["rng-taint"]
    assert result.violations[0].path.endswith("app.py")


def test_rng_taint_default_argument(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "import numpy as np\n"
                "def sample(rng=np.random.default_rng(0)):\n"
                "    return rng.normal()\n"
            )
        },
    )
    assert _rules(result) == ["rng-taint"]
    assert "default argument" in result.violations[0].message


def test_rng_taint_boundary_crossing_flagged_outside_executor(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "import numpy as np\n"
                "def fan_out(pool, seed):\n"
                "    gen = np.random.default_rng(seed)\n"
                "    pool.submit(run, gen)\n"
                "def run(gen):\n"
                "    return gen.normal()\n"
            )
        },
    )
    assert "rng-taint" in _rules(result)
    assert any(
        "executor boundary" in v.message for v in result.violations
    )


def test_rng_taint_int_laundering_is_sanctioned(tmp_path):
    # int(...) of a spawned seed is the sanctioned hand-off: taint does
    # not propagate through arbitrary calls.
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "import numpy as np\n"
                "def spawn_seed(gen):\n"
                "    return int(gen.integers(2**31))\n"
                "SEED_KIND = 1\n"
            )
        },
    )
    assert _rules(result) == []


# -- shared-state-race -------------------------------------------------------


RACE_TREE = {
    "eng.py": (
        "STATE = {}\n"
        "\n"
        "def task(global_params, scratch):\n"
        "    scratch[0] = 1.0\n"
        "    return scratch\n"
        "\n"
        "class Engine:\n"
        "    def run(self, pool):\n"
        "        pool.submit(task, [], [])\n"
    ),
}


def test_shared_state_race_clean_tree(tmp_path):
    result, _ = _analyze(tmp_path, RACE_TREE)
    assert _rules(result) == []


def test_shared_state_race_param_write(tmp_path):
    bad = dict(RACE_TREE)
    bad["eng.py"] = bad["eng.py"].replace(
        "    scratch[0] = 1.0\n",
        "    scratch[0] = 1.0\n    global_params[0] = 0.0\n",
    )
    result, _ = _analyze(tmp_path, bad)
    assert _rules(result) == ["shared-state-race"]
    assert "broadcast parameter 'global_params'" in result.violations[0].message


def test_shared_state_race_module_write_in_worker(tmp_path):
    bad = dict(RACE_TREE)
    bad["eng.py"] = bad["eng.py"].replace(
        "    return scratch\n",
        "    STATE['x'] = 1\n    return scratch\n",
    )
    result, _ = _analyze(tmp_path, bad)
    assert _rules(result) == ["shared-state-race"]
    assert "module-level state 'STATE'" in result.violations[0].message


def test_shared_state_race_store_param_write_in_worker(tmp_path):
    # The fl/store boundary: the store's rows are coordinator-owned, so a
    # worker-reachable write through a store-named parameter must fire.
    bad = dict(RACE_TREE)
    bad["eng.py"] = bad["eng.py"].replace(
        "def task(global_params, scratch):\n",
        "def task(global_params, scratch, store):\n",
    ).replace(
        "    scratch[0] = 1.0\n",
        "    scratch[0] = 1.0\n    store[0] = 7\n",
    )
    result, _ = _analyze(tmp_path, bad)
    assert _rules(result) == ["shared-state-race"]
    assert (
        "client-state store parameter 'store'"
        in result.violations[0].message
    )


def test_shared_state_race_shard_array_write_in_worker(tmp_path):
    bad = dict(RACE_TREE)
    bad["eng.py"] = bad["eng.py"].replace(
        "def task(global_params, scratch):\n",
        "def task(global_params, scratch, shard_rng):\n",
    ).replace(
        "    scratch[0] = 1.0\n",
        "    scratch[0] = 1.0\n    shard_rng[3] = 0\n",
    )
    result, _ = _analyze(tmp_path, bad)
    assert _rules(result) == ["shared-state-race"]
    assert "'shard_rng'" in result.violations[0].message


def test_store_read_in_worker_is_not_a_race(tmp_path):
    # Workers may *read* store-backed views; only writes cross the
    # coordinator-ownership line.
    ok = dict(RACE_TREE)
    ok["eng.py"] = ok["eng.py"].replace(
        "def task(global_params, scratch):\n",
        "def task(global_params, scratch, store):\n",
    ).replace(
        "    scratch[0] = 1.0\n",
        "    scratch[0] = store[0]\n",
    )
    result, _ = _analyze(tmp_path, ok)
    assert _rules(result) == []


def test_shared_state_race_transitive_reachability(tmp_path):
    # The write sits one call away from the submitted entry point.
    result, _ = _analyze(
        tmp_path,
        {
            "eng.py": (
                "STATE = {}\n"
                "\n"
                "def task(x):\n"
                "    return helper(x)\n"
                "\n"
                "def helper(x):\n"
                "    STATE['x'] = x\n"
                "    return x\n"
                "\n"
                "def coordinator(pool):\n"
                "    pool.submit(task, 1)\n"
            )
        },
    )
    assert _rules(result) == ["shared-state-race"]
    assert "helper" in result.violations[0].message


def test_coordinator_side_write_is_not_a_race(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "eng.py": (
                "STATE = {}\n"
                "\n"
                "def coordinator():\n"
                "    STATE['x'] = 1\n"
            )
        },
    )
    assert _rules(result) == []


HANDLER_TREE = {
    "ev.py": (
        "STATE = {}\n"
        "\n"
        "class Engine:\n"
        "    def __init__(self):\n"
        "        self.handlers = {}\n"
        "\n"
        "    def register_handler(self, kind, handler):\n"
        "        self.handlers[kind] = handler\n"
        "\n"
        "def on_arrival(event):\n"
        "    return event\n"
        "\n"
        "def wire(engine):\n"
        "    engine.register_handler(0, on_arrival)\n"
    ),
}


def test_handler_reachable_clean_tree(tmp_path):
    result, _ = _analyze(tmp_path, HANDLER_TREE)
    assert _rules(result) == []


def test_shared_state_race_event_handler_module_write(tmp_path):
    # Event-loop handlers run while dispatched rounds are in flight:
    # a module-level write inside one is a race, same as in a worker.
    bad = dict(HANDLER_TREE)
    bad["ev.py"] = bad["ev.py"].replace(
        "def on_arrival(event):\n    return event\n",
        "def on_arrival(event):\n    STATE['x'] = 1\n    return event\n",
    )
    result, _ = _analyze(tmp_path, bad)
    assert _rules(result) == ["shared-state-race"]
    assert "event-handler-reachable" in result.violations[0].message
    assert "module-level state 'STATE'" in result.violations[0].message


def test_shared_state_race_event_handler_transitive_param_write(tmp_path):
    # The store sits one call below the registered handler, through a
    # broadcast-named parameter; handler= keyword registration counts.
    bad = dict(HANDLER_TREE)
    bad["ev.py"] = bad["ev.py"].replace(
        "def on_arrival(event):\n    return event\n",
        "def on_arrival(event):\n"
        "    return scribble(event, [])\n"
        "\n"
        "def scribble(event, global_params):\n"
        "    global_params[0] = 0.0\n"
        "    return event\n",
    ).replace(
        "    engine.register_handler(0, on_arrival)\n",
        "    engine.register_handler(0, handler=on_arrival)\n",
    )
    result, _ = _analyze(tmp_path, bad)
    assert _rules(result) == ["shared-state-race"]
    assert "event-handler-reachable" in result.violations[0].message
    assert "broadcast parameter 'global_params'" in result.violations[0].message


# -- ckpt-state-coverage -----------------------------------------------------


def test_ckpt_coverage_uncaptured_attr(tmp_path):
    config = load_config(REPO_ROOT)
    result, _ = _analyze(
        tmp_path,
        {
            "fl/thing.py": (
                "class Thing:\n"
                "    def __init__(self):\n"
                "        self.kept = 1\n"
                "        self.lost = 2\n"
                "        self.skipped = 3  # ckpt: transient - test seed\n"
                "\n"
                "    def state_dict(self):\n"
                "        return {'kept': self.kept}\n"
            )
        },
        config=config,
    )
    assert _rules(result) == ["ckpt-state-coverage"]
    assert "'self.lost'" in result.violations[0].message


def test_ckpt_coverage_capture_closure_through_helpers(tmp_path):
    config = load_config(REPO_ROOT)
    result, _ = _analyze(
        tmp_path,
        {
            "fl/thing.py": (
                "class Thing:\n"
                "    def __init__(self):\n"
                "        self.deep = 1\n"
                "\n"
                "    def _pack(self):\n"
                "        return {'deep': self.deep}\n"
                "\n"
                "    def state_dict(self):\n"
                "        return self._pack()\n"
            )
        },
        config=config,
    )
    assert _rules(result) == []


def test_ckpt_coverage_ignores_stateless_classes(tmp_path):
    config = load_config(REPO_ROOT)
    result, _ = _analyze(
        tmp_path,
        {
            "fl/thing.py": (
                "class Plain:\n"
                "    def __init__(self):\n"
                "        self.anything = 1\n"
            )
        },
        config=config,
    )
    assert _rules(result) == []


# -- trace-discipline --------------------------------------------------------


def test_trace_discipline_discarded_span(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "def f(tracer):\n"
                "    tracer.span('x')\n"
            )
        },
    )
    assert _rules(result) == ["trace-discipline"]
    assert "discarded" in result.violations[0].message


def test_trace_discipline_unentered_span(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "def f(tracer):\n"
                "    pending = tracer.span('x')\n"
                "    return 1\n"
            )
        },
    )
    assert _rules(result) == ["trace-discipline"]
    assert "never" in result.violations[0].message


def test_trace_discipline_enter_patterns_accepted(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "def f(tracer):\n"
                "    with tracer.span('a'):\n"
                "        pass\n"
                "    manual = tracer.span('b')\n"
                "    manual.__enter__()\n"
            )
        },
    )
    assert _rules(result) == []


def test_trace_discipline_wallclock_in_attrs(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "from time import monotonic\n"
                "def f(tracer):\n"
                "    t0 = monotonic()\n"
                "    tracer.event('e', attrs={'t': t0})\n"
            )
        },
    )
    assert _rules(result) == ["trace-discipline"]
    assert "wall-clock" in result.violations[0].message


def test_trace_discipline_rt_channel_is_exempt(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "from time import monotonic\n"
                "def f(tracer):\n"
                "    t0 = monotonic()\n"
                "    tracer.event('e', rt=t0)\n"
                "    with tracer.span('s', rt=monotonic()):\n"
                "        pass\n"
            )
        },
    )
    assert _rules(result) == []


# -- suppression comments ----------------------------------------------------


def test_flow_findings_respect_line_suppressions(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "import numpy as np\n"
                "GEN = np.random.default_rng(0)"
                "  # repro-lint: disable=rng-taint\n"
            )
        },
    )
    assert _rules(result) == []


# -- real-tree mutations (the acceptance-criteria seeds) ---------------------
#
# The unmutated tree's cleanliness is asserted once, by
# ``test_lint_clean.py::test_whole_program_pass_is_clean``.


def _analyze_real(mutations):
    config = load_config(REPO_ROOT)
    analyzer = ProjectAnalyzer(config=config, file_sources=mutations)
    return analyzer.analyze([str(SRC)])


def test_mutated_trainer_attr_is_flagged():
    trainer = SRC / "fl" / "trainer.py"
    source = trainer.read_text().replace(
        "        self.history = RunHistory(policy_name=policy.name)\n",
        "        self.history = RunHistory(policy_name=policy.name)\n"
        "        self._foo = 1\n",
    )
    assert "self._foo" in source
    result = _analyze_real({str(trainer): source})
    hits = [v for v in result.violations if v.rule == "ckpt-state-coverage"]
    assert len(hits) == 1
    assert "'self._foo'" in hits[0].message
    assert "FederatedTrainer" in hits[0].message


def test_mutated_worker_param_write_is_flagged():
    client = SRC / "fl" / "client.py"
    source = client.read_text().replace(
        "        update -= global_params\n",
        "        update -= global_params\n"
        "        global_params[0] = 0.0\n",
    )
    assert "global_params[0]" in source
    result = _analyze_real({str(client): source})
    hits = [v for v in result.violations if v.rule == "shared-state-race"]
    assert hits, [v.format() for v in result.violations]
    assert any("global_params" in v.message for v in hits)
