#!/usr/bin/env python
"""Run the simulation-core performance suite and emit ``BENCH_core.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_core.py [--quick] \
        [--output BENCH_core.json]

``--quick`` shrinks the microbench sizes so the whole suite finishes
in under a minute; the emitted JSON has the same shape either way.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller microbench sizes and repeats",
    )
    parser.add_argument(
        "--output", default="BENCH_core.json",
        help="where to write the JSON report (default: ./BENCH_core.json)",
    )
    parser.add_argument(
        "--datapath-output", default="BENCH_datapath.json",
        help="where to write the data-path report "
             "(default: ./BENCH_datapath.json; empty string skips it)",
    )
    args = parser.parse_args(argv)

    import os

    for output in (args.output, args.datapath_output):
        out_dir = os.path.dirname(output) or "."
        if output and not os.path.isdir(out_dir):
            # Fail before spending half a minute benchmarking.
            print(f"error: output directory does not exist: {out_dir}",
                  file=sys.stderr)
            return 1

    from repro.experiments import perfbench

    payload = perfbench.run_suite(quick=args.quick)
    perfbench.write_report(payload, args.output)
    print(perfbench.render(payload))
    print(f"wrote {args.output}")

    if args.datapath_output:
        dp_payload = perfbench.run_datapath_suite(quick=args.quick)
        perfbench.write_report(dp_payload, args.datapath_output)
        print(perfbench.render_datapath(dp_payload))
        print(f"wrote {args.datapath_output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
