"""Smoke checks for the performance suite (tier-1 wiring).

These keep the bench machinery honest — the workloads run, the report
has the documented shape, and the CLI exposes it — without asserting
speedup ratios, which a loaded CI box cannot measure reliably.  The
real numbers come from ``repro bench`` / ``benchmarks/run_perf.sh``
(``--quick`` finishes in under a minute) and land in
``BENCH_core.json``.
"""

import json

from repro.experiments import perfbench
from repro.sim import Engine


def test_churn_workload_counts_events():
    env = Engine()
    assert perfbench._churn(env, 2_000, fan=255) == 2_000
    assert env.peek() == float("inf") or env.peek() > 0  # drained cleanly


def test_measure_reports_kernel_rate():
    out = perfbench._measure(
        lambda env: perfbench._churn(env, 5_000, fan=255), repeats=3
    )
    low, high = out["events_per_s_range"]
    assert 0 < low <= out["events_per_s"] <= high
    assert out["repeats"] == 3


def test_tracer_bench_shape():
    out = perfbench.bench_tracer(quick=True)
    assert out["records_per_s"] > 0
    assert out["finish_records_per_s"] > 0
    assert out["n_records"] == 100_000


def test_report_render_and_write(tmp_path):
    payload = {
        "benchmark": "repro fast simulation core",
        "quick": True,
        "engine": {
            "events_per_s": 400_000, "events_per_s_range": [390_000, 410_000],
            "repeats": 5, "workload": "w",
        },
        "engine_process_driven": {
            "events_per_s": 200_000, "events_per_s_range": [190_000, 210_000],
            "repeats": 3, "workload": "w",
        },
        "tracer": {
            "records_per_s": 1000, "finish_records_per_s": 1000,
            "n_records": 10,
        },
        "end_to_end": {
            "fresh_wall_s": 1.0, "cached_wall_s": 0.5, "records": 10,
        },
        "environment": {},
        "suite_wall_s": 2.0,
    }
    text = perfbench.render(payload)
    assert "400,000 events/s" in text
    assert "escat-A cached    0.50s" in text
    out = tmp_path / "BENCH_core.json"
    perfbench.write_report(payload, str(out))
    assert json.loads(out.read_text())["engine"]["events_per_s"] == 400_000


def test_datapath_decomposition_bench_shape():
    out = perfbench.bench_datapath_decomposition(quick=True)
    assert out["scalar_pieces_per_s"] > 0
    assert out["vectorized_pieces_per_s"] > 0
    assert out["speedup"] > 0


def test_datapath_server_load_runs():
    requests = 2 * 10 * 2
    wall = perfbench._server_load_run(True, n_ranks=2, ops=10)
    assert wall > 0
    assert requests / wall > 0


def test_datapath_render(tmp_path):
    payload = {
        "benchmark": "repro batched PFS data path",
        "quick": True,
        "decomposition": {
            "workload": "w", "scalar_pieces_per_s": 100,
            "vectorized_pieces_per_s": 1000, "speedup": 10.0,
        },
        "server": {
            "workload": "w", "legacy_requests_per_s": 100,
            "fast_requests_per_s": 150, "speedup": 1.5,
        },
        "end_to_end": {
            "scale": "paper", "fast_wall_s": 4.0, "legacy_wall_s": 8.0,
            "records": 10, "speedup_vs_legacy_datapath": 2.0,
            "speedup_vs_pr1_baseline": 2.09,
        },
        "baseline_pr1": perfbench.DATAPATH_BASELINE,
        "criteria": perfbench.DATAPATH_CRITERIA,
        "environment": {},
        "suite_wall_s": 2.0,
    }
    text = perfbench.render_datapath(payload)
    assert "speedup 10.00x" in text
    assert "PR 1 baseline" in text
    out = tmp_path / "BENCH_datapath.json"
    perfbench.write_report(payload, str(out))
    assert json.loads(out.read_text())["server"]["speedup"] == 1.5


def test_cli_exposes_bench_and_cache_flags():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["bench", "--quick", "--output", "x.json"])
    assert args.quick and args.output == "x.json"
    assert args.datapath_output == "BENCH_datapath.json"
    args = parser.parse_args(["validate", "--jobs", "4", "--no-cache"])
    assert args.jobs == 4 and args.no_cache
    args = parser.parse_args(["all", "--jobs", "2"])
    assert args.jobs == 2 and not args.no_cache
