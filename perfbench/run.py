"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine_strata --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``engine_strata``, ``plane_zipf`` and ``serve_open`` (see
``perfbench/METHODOLOGY.md``).  Every output is
compared with the exact oracle.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Any oracle mismatch makes ``correct`` false and the
exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("engine_strata", "plane_zipf", "serve_open")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [src, root]

    from perfbench import common

    if args.workload == "serve_open":
        from perfbench import loadgen

        res = loadgen.run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    else:
        from perfbench import inproc

        res = inproc.run(args.workload, args.seed, args.seconds,
                         bool(args.trace))

    metrics = res["metrics"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g}")
    for name, unit in common.E2E_UNITS.items():
        print(f"{name:<20} {metrics[name]:>14.6g} {unit:<9} "
              f"samples={res['samples'].get(name, 1)}")
    counts = res["counts"]
    print("# counts: " + " ".join(
        f"{k}={counts[k]:.6g}" for k in common.PER_LAYER_UNITS
        if not k.startswith(("share.", "overhead.")) and counts.get(k)))
    mismatches = res.get("mismatches", res["failed"])
    if mismatches:
        print(f"# ORACLE MISMATCH: {mismatches} outputs differ from the "
              "exact oracle", file=sys.stderr)
    if args.trace:
        line = common.result_line(not mismatches, res["attempted"],
                                  res["failed"], res["per_layer"],
                                  common.PER_LAYER_UNITS)
    else:
        line = common.result_line(not mismatches, res["attempted"],
                                  res["failed"], metrics, common.E2E_UNITS)
    print(json.dumps(line), flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
