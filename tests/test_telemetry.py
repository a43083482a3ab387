"""Tests for repro.telemetry: the observability subsystem.

The two headline guarantees are asserted here: enabling telemetry
leaves SDDF traces byte-identical across both data paths, and a
disabled registry hands out shared null instruments.
Also covers the run-cache statistics sidecar and the perf regression
gate behind ``repro bench --check``.
"""

import io
import json

import pytest

from repro import telemetry
from repro.apps import run_escat, scaled_escat_problem
from repro.core.breakdown import io_time_breakdown
from repro.experiments import cache, perfbench
from repro.pablo.sddf import write_sddf
from repro.sim import Engine
from repro.telemetry import (
    Counter,
    EngineProbe,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    SimTimeSampler,
    TelemetryError,
    to_json,
    to_openmetrics,
)

SEED = 1996


@pytest.fixture
def forced_telemetry():
    """Enable telemetry for the test, always restoring the env default."""
    telemetry.set_enabled(True)
    try:
        yield
    finally:
        telemetry.set_enabled(None)
        telemetry.set_sample_resolution(None)


# ---------------------------------------------------------------------------
# registry primitives


def test_counter_increments_and_rejects_negative():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(TelemetryError):
        c.inc(-1)


def test_gauge_set_and_callback_read():
    g = Gauge()
    g.set(7)
    assert g.read() == 7.0
    level = {"value": 1}
    g = Gauge(fn=lambda: level["value"])
    assert g.read() == 1.0
    level["value"] = 9
    assert g.read() == 9.0  # callback re-evaluated on every read


def test_histogram_buckets_and_cumulative():
    h = Histogram(bounds=(1.0, 10.0, 100.0))
    for v in (0.5, 5.0, 5.0, 50.0, 500.0):
        h.observe(v)
    assert h.count == 5
    assert h.sum == pytest.approx(560.5)
    assert h.bucket_counts == [1, 2, 1]  # +Inf bucket is count itself
    assert h.cumulative() == [1, 3, 4]


def test_histogram_rejects_bad_bounds():
    with pytest.raises(TelemetryError):
        Histogram(bounds=())
    with pytest.raises(TelemetryError):
        Histogram(bounds=(1.0, 1.0))
    with pytest.raises(TelemetryError):
        Histogram(bounds=(2.0, 1.0))


def test_disabled_registry_hands_out_shared_nulls():
    reg = MetricsRegistry(enabled=False)
    assert reg.counter("a") is NULL_COUNTER
    assert reg.gauge("b") is NULL_GAUGE
    assert reg.gauge_fn("c", lambda: 1.0) is NULL_GAUGE
    assert reg.histogram("d") is NULL_HISTOGRAM
    # Null mutators are no-ops, and nothing is retained.
    NULL_COUNTER.inc(5)
    NULL_GAUGE.set(5)
    NULL_HISTOGRAM.observe(5)
    assert NULL_COUNTER.value == 0
    assert NULL_GAUGE.value == 0
    assert NULL_HISTOGRAM.count == 0
    assert reg.collect() == []
    assert len(reg) == 0


def test_registry_label_identity_and_kind_conflict():
    reg = MetricsRegistry()
    a = reg.counter("reqs", server="io0")
    b = reg.counter("reqs", server="io0")
    c = reg.counter("reqs", server="io1")
    assert a is b and a is not c
    with pytest.raises(TelemetryError):
        reg.gauge("reqs")  # same name, different kind
    with pytest.raises(TelemetryError):
        reg.counter("bad name")


def test_registry_collect_shape():
    reg = MetricsRegistry()
    reg.counter("n", help="things").inc(3)
    reg.gauge_fn("level", lambda: 42.0)
    reg.histogram("lat", bounds=(1.0, 2.0)).observe(1.5)
    snap = reg.collect()
    assert [f["name"] for f in snap] == ["lat", "level", "n"]  # sorted
    by_name = {f["name"]: f for f in snap}
    assert by_name["n"]["samples"][0]["value"] == 3
    assert by_name["level"]["samples"][0]["value"] == 42.0
    hist = by_name["lat"]["samples"][0]
    assert hist["count"] == 1 and hist["cumulative"] == [0, 1]
    json.dumps(snap)  # JSON-able throughout


# ---------------------------------------------------------------------------
# sampler


def test_sampler_samples_once_per_grid_crossing():
    s = SimTimeSampler(resolution=1.0)
    level = {"value": 0.0}
    s.add_source("q", lambda: level["value"])
    for now, value in ((0.0, 1), (0.5, 2), (1.2, 3), (1.3, 4), (2.7, 5)):
        level["value"] = value
        s.on_advance(now)
    # 0.0 starts the grid; 0.5 and 1.3 are inside already-sampled
    # cells; 1.2 and 2.7 cross new grid points.
    assert s.times == [0.0, 1.2, 2.7]
    assert s.series()["q"] == [1.0, 3.0, 5.0]


def test_sampler_rejects_duplicates_and_bad_resolution():
    s = SimTimeSampler()
    s.add_source("q", lambda: 0.0)
    with pytest.raises(ValueError):
        s.add_source("q", lambda: 0.0)
    with pytest.raises(ValueError):
        SimTimeSampler(resolution=0.0)


def test_engine_probe_forwards_to_sampler():
    s = SimTimeSampler(resolution=1.0)
    s.add_source("x", lambda: 1.0)
    probe = EngineProbe(s)
    probe.on_advance(0.0)
    assert s.times == [0.0]
    # Driven by the run loop: on_advance(t) fires after the last event
    # at t and before the next event is counted.
    s = SimTimeSampler(resolution=1.0)
    probe = EngineProbe(s)
    s.add_source("events", lambda: probe.events)
    env = Engine()
    env.attach_probe(probe)
    for t in (1.0, 1.0, 2.0, 3.5):
        env.at(t)
    env.run()
    assert s.times == [1.0, 2.0, 3.5]
    assert s.series()["events"] == [2.0, 3.0, 4.0]
    assert (probe.events, probe.timestamps) == (4, 3)


# ---------------------------------------------------------------------------
# exporters


def test_openmetrics_output_shape():
    reg = MetricsRegistry()
    reg.counter("reqs_total", help="requests", server="io0").inc(2)
    reg.histogram("lat_seconds", bounds=(0.1, 1.0)).observe(0.5)
    text = to_openmetrics(reg.collect())
    assert text.endswith("# EOF\n")
    assert '# TYPE reqs_total counter' in text
    assert 'reqs_total{server="io0"} 2' in text
    assert 'lat_seconds_bucket{le="+Inf"} 1' in text
    assert "lat_seconds_count 1" in text


def test_to_json_is_deterministic():
    snap = {"b": 1, "a": {"d": 2, "c": 3}}
    assert to_json(snap) == to_json(dict(reversed(list(snap.items()))))


# ---------------------------------------------------------------------------
# the headline guarantee: telemetry never changes simulation output


def _escat_sddf(monkeypatch, fast_datapath, with_telemetry):
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_FAST_DATAPATH", "1" if fast_datapath else "0")
    telemetry.set_enabled(True if with_telemetry else None)
    try:
        problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
        result = run_escat("A", problem, seed=SEED)
    finally:
        telemetry.set_enabled(None)
    out = io.StringIO()
    write_sddf(result.trace, out)
    return out.getvalue(), result


@pytest.mark.parametrize("fast_datapath", [True, False])
def test_telemetry_is_byte_invisible(monkeypatch, fast_datapath):
    plain_sddf, plain = _escat_sddf(
        monkeypatch, fast_datapath, with_telemetry=False
    )
    telem_sddf, telem = _escat_sddf(
        monkeypatch, fast_datapath, with_telemetry=True
    )
    assert plain.telemetry is None
    assert telem.telemetry is not None
    assert telem_sddf == plain_sddf
    plain_b = io_time_breakdown(plain.trace)
    telem_b = io_time_breakdown(telem.trace)
    assert plain_b.totals == telem_b.totals
    assert plain_b.counts == telem_b.counts


def test_snapshot_structure_and_consistency(monkeypatch, forced_telemetry):
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_FAST_DATAPATH", "1")
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    result = run_escat("A", problem, seed=SEED)
    snap = result.telemetry
    assert snap["schema"] == telemetry.instruments.SCHEMA
    eng = snap["engine"]
    assert eng["events"] > 0
    # Every dispatched event happened at some distinct timestamp.
    assert 0 < eng["timestamps"] <= eng["events"]
    assert snap["sim_seconds"] == pytest.approx(result.wall_time)
    assert len(snap["servers"]) == 16  # caltech config: 16 I/O nodes
    for server in snap["servers"]:
        disk = server["disk"]
        assert disk["busy_s"] >= 0
        assert disk["busy_s"] == pytest.approx(
            disk["position_s"] + disk["transfer_s"], rel=1e-6, abs=1e-9
        ) or disk["busy_s"] >= disk["position_s"] + disk["transfer_s"] - 1e-6
    dp = snap["datapath"]
    # Span-carried and event-stepped bytes partition the write traffic.
    assert dp["span_bytes"] > 0 and dp["fallback_bytes"] >= 0
    ts = snap["timeseries"]
    assert ts["times"], "sampler never fired"
    assert all(len(v) == len(ts["times"]) for v in ts["series"].values())
    assert snap["trace"]["by_phase"]
    text = to_openmetrics(snap)
    assert text.endswith("# EOF\n")
    json.dumps(snap)


def test_sample_resolution_override(monkeypatch, forced_telemetry):
    monkeypatch.setenv("REPRO_CACHE", "0")
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    telemetry.set_sample_resolution(5.0)
    coarse = run_escat("A", problem, seed=SEED).telemetry
    telemetry.set_sample_resolution(0.25)
    fine = run_escat("A", problem, seed=SEED).telemetry
    assert len(fine["timeseries"]["times"]) > len(
        coarse["timeseries"]["times"]
    )
    with pytest.raises(TelemetryError):
        telemetry.set_sample_resolution(-1.0)


def test_render_summary_mentions_the_load_bearing_lines(
    monkeypatch, forced_telemetry
):
    monkeypatch.setenv("REPRO_CACHE", "0")
    # The datapath line summarizes spans: pin the batched datapath.
    monkeypatch.setenv("REPRO_FAST_DATAPATH", "1")
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    snap = run_escat("A", problem, seed=SEED).telemetry
    text = telemetry.render_summary(snap, top=2)
    assert "busiest servers" in text
    assert "datapath:" in text
    assert "caches:" in text
    assert text.count("io ") == 2  # --top honoured


# ---------------------------------------------------------------------------
# run-cache statistics sidecar


def test_cache_stats_track_hits_misses_and_quarantine(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    result = run_escat("A", problem, seed=SEED)
    before = cache.session_stats()
    key = cache.run_key(kind="stats-test", problem=problem)

    assert cache.load(key) is None  # miss
    cache.store(key, result)
    assert cache.load(key) is not None  # hit
    trace_path, meta_path = cache._paths(key)
    meta_path.write_text("{broken")
    assert cache.load(key) is None  # corrupt: miss + quarantine

    after = cache.session_stats()
    deltas = {k: after[k] - before[k] for k in after}
    assert deltas["hits"] == 1
    assert deltas["misses"] == 2
    assert deltas["stores"] == 1
    assert deltas["quarantined"] == 1

    # The sidecar persists the same counters at the cache root, and
    # the stats scan does not count it as an entry.
    persistent = cache.persistent_stats()
    assert persistent["hits"] >= 1 and persistent["quarantined"] >= 1
    assert (tmp_path / cache.STATS_NAME).exists()
    st = cache.stats()
    assert st["entries"] == 0  # quarantined entry removed, STATS skipped
    assert st["dir"] == str(tmp_path)


def test_cache_stats_sidecar_survives_eviction_scan(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    result = run_escat("A", problem, seed=SEED)
    key = cache.run_key(kind="evict-sidecar", problem=problem)
    cache.store(key, result)
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1")
    # The only entry is keep-protected; the sidecar must not be
    # treated as an evictable entry (it would loop or be deleted).
    assert cache.evict(keep_key=key) == 0
    assert (tmp_path / cache.STATS_NAME).exists()
    assert cache.load(key) is not None


def test_cache_stats_disabled_cache_skips_sidecar(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE", "0")
    before = cache.session_stats()
    assert cache.load("0" * 64) is None
    after = cache.session_stats()
    # Disabled cache: no lookup happened at all, nothing written.
    assert after == before
    assert not (tmp_path / cache.STATS_NAME).exists()


# ---------------------------------------------------------------------------
# perf regression gate


def _fake_report(kind="repro batched PFS data path", quick=False, scale=1.0):
    return {
        "benchmark": kind,
        "quick": quick,
        "contended_end_to_end": {"speedup_vs_legacy_datapath": 1.5 * scale},
        "server": {"speedup": 1.5 * scale},
    }


def test_check_regressions_passes_identical_reports():
    report = perfbench.check_regressions(_fake_report(), _fake_report())
    assert not report["regressed"]
    assert report["compared"] == 2
    assert "verdict: ok" in perfbench.render_check(report)


def test_check_regressions_flags_injected_slowdown():
    # 15% is the threshold: a 15% drop is within tolerance, 16% fails.
    ok = perfbench.check_regressions(
        _fake_report(scale=0.86), _fake_report()
    )
    assert not ok["regressed"]
    bad = perfbench.check_regressions(
        _fake_report(scale=0.84), _fake_report()
    )
    assert bad["regressed"]
    assert "REGRESSED" in perfbench.render_check(bad)


def test_check_regressions_skips_scale_sensitive_on_quick_mismatch():
    def dp_report(quick, speedup=1.3):
        return {
            "benchmark": "repro batched PFS data path",
            "quick": quick,
            "contended_end_to_end": {"speedup_vs_legacy_datapath": 1.5},
            "server": {"speedup": 0.7},
            "end_to_end": {"speedup_vs_legacy_datapath": speedup},
        }

    report = perfbench.check_regressions(
        dp_report(quick=True, speedup=0.1), dp_report(quick=False)
    )
    skipped = [r["metric"] for r in report["metrics"] if "skipped" in r]
    assert "end_to_end.speedup_vs_legacy_datapath" in skipped
    assert "contended_end_to_end.speedup_vs_legacy_datapath" in skipped
    assert not report["regressed"]
    # Like-for-like scale compares everything.
    report = perfbench.check_regressions(
        dp_report(quick=True, speedup=0.1), dp_report(quick=True)
    )
    assert report["compared"] == 3
    assert report["regressed"]


def test_check_regressions_rejects_suite_mismatch_and_bad_baseline(
    tmp_path,
):
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        perfbench.check_regressions(
            _fake_report(), _fake_report(kind="other suite")
        )
    with pytest.raises(ReproError):
        perfbench.load_report(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text('{"no": "benchmark key"}')
    with pytest.raises(ReproError):
        perfbench.load_report(str(bad))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_fake_report()))
    assert perfbench.load_report(str(good))["benchmark"] \
        == "repro batched PFS data path"


def test_missing_metric_is_reported_not_crashed():
    current = _fake_report()
    del current["server"]
    report = perfbench.check_regressions(current, _fake_report())
    rows = {r["metric"]: r for r in report["metrics"]}
    assert rows["server.speedup"]["skipped"] == "missing in report"
    assert not report["regressed"]


# ---------------------------------------------------------------------------
# absolute criteria gate


def _dp_report(quick=False, server=1.6, e2e=2.2, criteria=None):
    return {
        "benchmark": "repro batched PFS data path",
        "quick": quick,
        "server": {"speedup": server},
        "end_to_end": {"speedup_vs_legacy_datapath": e2e},
        "criteria": criteria if criteria is not None else {
            "end_to_end_speedup_min": 2.0,
            "server_speedup_min": 1.5,
        },
    }


def test_check_criteria_met():
    report = perfbench.check_criteria(_dp_report())
    assert not report["unmet"]
    assert report["checked"] == 2
    assert "verdict: ok" in perfbench.render_criteria(report)


def test_check_criteria_flags_red_baseline():
    # A baseline committed below its own targets fails the gate.
    report = perfbench.check_criteria(_dp_report(server=0.68, e2e=1.22))
    assert report["unmet"]
    rows = {r["criterion"]: r for r in report["criteria"]}
    assert rows["server_speedup_min"]["met"] is False
    assert rows["end_to_end_speedup_min"]["met"] is False
    assert "UNMET" in perfbench.render_criteria(report)


def test_check_criteria_targets_come_from_committed_baseline():
    # Relaxing the criteria in the fresh payload must not help: the
    # committed baseline's targets are the ones judged.
    current = _dp_report(server=1.0, criteria={"server_speedup_min": 0.5})
    committed = _dp_report(criteria={"server_speedup_min": 1.5})
    assert perfbench.check_criteria(current, committed)["unmet"]
    assert not perfbench.check_criteria(current)["unmet"]


def test_check_criteria_skips_scale_sensitive_on_quick():
    report = perfbench.check_criteria(_dp_report(quick=True, e2e=0.1))
    rows = {r["criterion"]: r for r in report["criteria"]}
    assert "skipped" in rows["end_to_end_speedup_min"]
    assert rows["server_speedup_min"]["met"]  # still judged on quick
    assert not report["unmet"]


def test_check_criteria_ignores_flags_and_unmapped_keys():
    dp = _dp_report(criteria={
        "server_speedup_min": 1.2,
        "end_to_end_speedup_min": 2.0,
        "server_ok": True,          # derived flag: not a target
        "made_up_target_min": 9.9,  # no measurement mapping
    })
    report = perfbench.check_criteria(dp)
    rows = {r["criterion"]: r for r in report["criteria"]}
    assert "server_ok" not in rows
    assert rows["made_up_target_min"]["skipped"] == "no measurement mapping"
    assert report["checked"] == 2
    assert not report["unmet"]


# ---------------------------------------------------------------------------
# CLI surfaces


def test_cli_metrics_runs_and_exports(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE", "0")
    json_path = tmp_path / "snap.json"
    om_path = tmp_path / "snap.om"
    rc = main([
        "metrics", "escat", "A", "--fast", "--top", "2",
        "--json", str(json_path), "--openmetrics", str(om_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "busiest servers" in out
    snap = json.loads(json_path.read_text())
    assert snap["schema"] == telemetry.instruments.SCHEMA
    assert om_path.read_text().endswith("# EOF\n")
    # The forced enablement did not leak past the command.
    assert not telemetry.enabled()


def test_cli_cache_stats_and_clear(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    result = run_escat("A", problem, seed=SEED)
    key = cache.run_key(kind="cli-stats", problem=problem)
    cache.store(key, result)

    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "entries: 1" in out
    assert "since creation" in out

    assert main(["cache", "clear"]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path) in out
    assert cache.stats()["entries"] == 0
    assert not list(tmp_path.rglob(f"{key}*"))


def test_cli_bench_check_gates_on_baseline(tmp_path, monkeypatch, capsys):
    from repro.cli import main
    from repro.experiments import perfbench as pb

    baseline = _fake_report(quick=True)
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(baseline))

    def fake_suite(quick=False):
        return _fake_report(quick=True, scale=0.5)  # 50% regression

    monkeypatch.setattr(pb, "run_datapath_suite", fake_suite)
    monkeypatch.setattr(pb, "render_datapath", lambda payload: "(suite)")
    rc = main([
        "bench", "--quick", "--check",
        "--datapath-output", str(tmp_path / "out.json"),
        "--datapath-baseline", str(base_path),
    ])
    assert rc == 1
    assert "REGRESSION detected" in capsys.readouterr().out

    monkeypatch.setattr(
        pb, "run_datapath_suite", lambda quick=False: baseline
    )
    rc = main([
        "bench", "--quick", "--check",
        "--datapath-output", str(tmp_path / "out.json"),
        "--datapath-baseline", str(base_path),
    ])
    assert rc == 0
    assert "verdict: ok" in capsys.readouterr().out
