#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py --seeds 20 [--workload sweep ...]

Runs each workload's iteration untraced for seeds 0 .. N-1 and stores every
step's observed facts in ``perfbench/reference.json`` under
[workload][seed][step]. Re-record only when a change is meant to alter the
program's results; a run of the benchmark never writes this file.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--workload", nargs="*", choices=run.WORKLOAD_NAMES, default=list(run.WORKLOAD_NAMES))
    args = p.parse_args(argv)
    for var in run.BLAS_ENV:
        os.environ[var] = str(run.BLAS_THREADS)
    run.load_package()
    from workloads import WORKLOADS

    recorded = {}
    workdir = run.OUT / f"record-{os.getpid()}"
    for name in args.workload:
        tally = run.Tally()
        entries = {}
        for seed in range(args.seeds):
            it = run.run_iteration(WORKLOADS[name], seed, {}, tally, workdir)
            entries[str(seed)] = it["facts"]
            print(f"{name} seed {seed}: {it['time']:.2f} s", flush=True)
        if tally.failed:
            print("\n".join(tally.problems), file=sys.stderr)
            return 1
        recorded[name] = entries
    path = run.BENCH / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    reference.update(recorded)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
