"""Record the reference pass of every workload seed.

    python3 perfbench/record_reference.py [--workload NAME ...]

Runs one untraced pass per recorded seed (and the held-out seed) and
writes its per-round record digests, ``history_digest`` and paper
quantities to perfbench/reference.json.  Re-record only when a change
is meant to alter run histories, and say so with the change.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench
    from perfbench.workloads import WORKLOADS, all_seeds

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    reference = bench.load_reference()
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        entries = {}
        for seed in all_seeds(workload):
            with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
                result = bench.run_pass(workload, workload.prepare(seed), scratch)
            if result.error:
                print(result.error, file=sys.stderr)
                return 1
            entries[str(seed)] = bench.reference_entry(result)
            print(f"{name} seed {seed}: {result.digest[:16]} "
                  f"({result.wall_s:.1f} s)", flush=True)
        reference[name] = entries
    bench.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
