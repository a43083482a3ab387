"""Smoke checks for the performance gate (tier-1 wiring).

These keep the bench machinery honest — the workloads run, the report
has the documented shape, and the CLI exposes it — without asserting
speedup ratios, which a loaded CI box cannot measure reliably.  The
real numbers come from ``repro bench --check`` (``--quick`` finishes
in under a minute) and land in ``BENCH_datapath.json``.
"""

import json

from repro.experiments import perfbench


def test_datapath_server_load_runs():
    requests = 2 * 10 * 2
    wall = perfbench._server_load_run(True, n_ranks=2, ops=10)
    assert wall > 0
    assert requests / wall > 0


def test_datapath_render(tmp_path):
    payload = {
        "benchmark": "repro batched PFS data path",
        "quick": True,
        "server": {
            "workload": "w", "legacy_requests_per_s": 100,
            "fast_requests_per_s": 150, "speedup": 1.5,
        },
        "end_to_end": {
            "scale": "paper", "fast_wall_s": 4.0, "legacy_wall_s": 8.0,
            "records": 10, "speedup_vs_legacy_datapath": 2.0,
        },
        "criteria": perfbench.DATAPATH_CRITERIA,
        "environment": {},
        "suite_wall_s": 2.0,
    }
    text = perfbench.render_datapath(payload)
    assert "speedup 1.50x" in text
    assert "speedup 2.00x" in text
    out = tmp_path / "BENCH_datapath.json"
    perfbench.write_report(payload, str(out))
    assert json.loads(out.read_text())["server"]["speedup"] == 1.5


def test_cli_exposes_bench_and_cache_flags():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["bench", "--quick", "--datapath-output", "x.json"]
    )
    assert args.quick and args.datapath_output == "x.json"
    assert args.datapath_baseline == "BENCH_datapath.json"
    args = parser.parse_args(["validate", "--jobs", "4", "--no-cache"])
    assert args.jobs == 4 and args.no_cache
    args = parser.parse_args(["all", "--jobs", "2"])
    assert args.jobs == 2 and not args.no_cache
