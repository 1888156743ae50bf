"""The repository benchmark: one workload, one fresh process.

    python3 perfbench/run.py --workload digits_cnn --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The run repeats passes (fresh
closed-loop training runs) of the workload until ``--seconds`` are
used, checks every pass against the recorded reference history, and
prints human-readable lines followed by one JSON line:

    {"correct": ..., "attempted": <rounds>, "failed": <rounds>, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics with no per-layer timing;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  See perfbench/README.md.
"""

import time

# Set-up time counts from here, before repro is imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Extra set-up samples, each a fresh process, besides this process's own.
SETUP_CHILDREN = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed; picks one of the workload's recorded seeds")
    parser.add_argument("--workload-seed", type=int, default=None,
                        help="use this workload seed directly (e.g. the held-out one)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure set-up once and print it (used for set-up samples)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    load_start = os.getloadavg()

    from perfbench import bench
    from perfbench.layers import LayerTimer, traced
    from perfbench.workloads import WORKLOADS, seed_cycle

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seeds = ([args.workload_seed] if args.workload_seed is not None
             else seed_cycle(workload, args.seed))

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root)
    try:
        if args.setup_only:
            data = workload.prepare(seeds[0])
            workload.start(data, scratch).close()
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
            return 0
        build_timer = LayerTimer()
        with traced(build_timer) if args.trace else nullcontext():
            data = workload.prepare(seeds[0])
        # The first pass builds its run again; that build is part of set-up.
        workload.start(data, scratch).close()
        own_setup_s = time.perf_counter() - _T0
        passes, traced_passes = _measure(bench, workload, seeds, data, scratch,
                                         args.seconds, args.trace)
        setup_samples = [own_setup_s]
        if not args.trace:
            setup_samples += _child_setups(args.workload, seeds[0])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        _remove_if_empty(tmp_root)

    reference = bench.load_reference().get(workload.name, {})
    all_passes = passes + traced_passes
    attempted = sum(p.rounds for p in all_passes)
    failed = sum(bench.check_pass(p, reference.get(str(p.seed)))
                 for p in all_passes)
    for p in all_passes:
        if p.error:
            print(p.error, file=sys.stderr)

    if args.trace:
        values = bench.layer_metrics(traced_passes, passes,
                                     build_timer.self_s.get("data.build", 0.0))
        units = bench.LAYER_METRICS
    else:
        values = bench.end_to_end_metrics(passes, setup_samples)
        units = bench.E2E_METRICS
    _print_details(bench, workload, load_start, passes, traced_passes,
                   failed, attempted, setup_samples)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _measure(bench, workload, seeds, first_data, scratch, seconds, trace):
    """Passes until ``seconds`` are used, cycling through ``seeds``.

    A pass starts only if it should end in time, judged by the last
    pass of its kind; the first pass (of each kind) always runs.  A
    traced run alternates untraced and traced passes, each pair on one
    seed.  Inputs for later seeds are generated between passes.
    """
    passes, traced_passes = [], []
    data = {seeds[0]: first_data}
    start = time.perf_counter()
    while True:
        want_traced = bool(trace) and len(traced_passes) < len(passes)
        kind = traced_passes if want_traced else passes
        if kind:
            elapsed = time.perf_counter() - start
            if elapsed + kind[-1].wall_s > seconds:
                if not trace or traced_passes:
                    break
        seed = seeds[len(kind) % len(seeds)]
        if seed not in data:
            data.clear()  # one seed's inputs alive at a time
            data[seed] = workload.prepare(seed)
        result = bench.run_pass(workload, data[seed], scratch, trace=want_traced)
        result.seed = seed
        kind.append(result)
    return passes, traced_passes


def _child_setups(workload_name, seed):
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload_name, "--workload-seed", str(seed), "--setup-only"]
    for _ in range(SETUP_CHILDREN):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _remove_if_empty(path):
    try:
        path.rmdir()
    except OSError:
        pass


def _print_details(bench, workload, load_start, passes, traced_passes,
                   failed, attempted, setup_samples):
    rounds = [s for p in passes for s in p.round_s]
    details = {
        "workload": workload.name,
        "workload_seeds": [p.seed for p in passes],
        "held_out_seed": workload.held_out_seed,
        "host": bench.fingerprint(load_start),
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "rounds_timed": len(rounds),
        "pass_samples_per_s": [p.samples / p.wall_s for p in passes],
        "setup_samples_s": setup_samples,
        "failed_share": failed / attempted,
        "upload_bytes": [p.upload_bytes for p in passes],
    }
    # Highest percentile with at least ten rounds beyond it.
    if len(rounds) >= 100:
        details["round_s_p90"] = statistics.quantiles(rounds, n=10)[-1]
    if passes[0].final_test_accuracy is not None:
        details["final_test_accuracy"] = [p.final_test_accuracy for p in passes]
        details["uploads_to_target"] = [p.uploads_to_target for p in passes]
        details["time_to_target_s"] = [p.time_to_target_s for p in passes]
    print(json.dumps(details))


if __name__ == "__main__":
    sys.exit(main())
