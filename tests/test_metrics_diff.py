"""Tests for ``repro metrics diff``: per-layer snapshot comparison.

Two canned snapshots (abridged ``repro metrics --json`` documents)
drive :func:`telemetry.snapshot_diff` and :func:`telemetry.render_diff`
without running a simulation, so the delta/percent arithmetic and the
missing-section rules are pinned exactly.  A final test goes through
the CLI with real exported snapshots.
"""

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.telemetry import TelemetryError

SNAP_A = {
    "sim_seconds": 100.0,
    "wall_seconds": 2.0,
    "engine": {"events": 1000, "timestamps": 800,
               "events_per_timestamp": 1.25},
    "network": {"messages": 400, "bytes_moved": 4096},
    "datapath": {"spans": 50, "spans_stacked": 10, "span_bytes": 3072,
                 "fallback_bytes": 1024, "span_stacked_bytes": 512,
                 "fallback_pieces": 4, "revocations": 1},
    "servers": [
        {"requests_completed": 100, "queue_delay_s": 1.0,
         "service_s": 10.0, "wb_drained": 5, "cache_hits": 30,
         "cache_misses": 10, "cache_evictions": 2,
         "disk": {"busy_s": 9.0, "position_s": 6.0, "transfer_s": 3.0,
                  "requests": 90}},
        {"requests_completed": 50, "queue_delay_s": 0.5,
         "service_s": 5.0, "wb_drained": 0, "cache_hits": 10,
         "cache_misses": 10, "cache_evictions": 0,
         "disk": {"busy_s": 4.0, "position_s": 2.5, "transfer_s": 1.5,
                  "requests": 40}},
    ],
}

SNAP_B = {
    "sim_seconds": 50.0,
    "wall_seconds": 1.0,
    "engine": {"events": 600, "timestamps": 500,
               "events_per_timestamp": 1.2},
    "network": {"messages": 200, "bytes_moved": 2048},
    # no "datapath": legacy-datapath run
    "servers": [
        {"requests_completed": 80, "queue_delay_s": 0.25,
         "service_s": 6.0, "wb_drained": 2, "cache_hits": 40,
         "cache_misses": 0, "cache_evictions": 0,
         "disk": {"busy_s": 5.0, "position_s": 3.0, "transfer_s": 2.0,
                  "requests": 70}},
    ],
}


def _rows(diff, layer):
    for section in diff["layers"]:
        if section["layer"] == layer:
            return {row["metric"]: row for row in section["rows"]}
    return {}


def test_diff_absolute_and_relative_deltas():
    diff = telemetry.snapshot_diff(SNAP_A, SNAP_B)
    run = _rows(diff, "run")
    assert run["sim_seconds"]["delta"] == pytest.approx(-50.0)
    assert run["sim_seconds"]["pct"] == pytest.approx(-50.0)
    engine = _rows(diff, "engine")
    assert engine["events"]["a"] == 1000
    assert engine["events"]["b"] == 600
    assert engine["events"]["pct"] == pytest.approx(-40.0)


def test_diff_sums_across_servers():
    diff = telemetry.snapshot_diff(SNAP_A, SNAP_B)
    server = _rows(diff, "server")
    assert server["requests_completed"]["a"] == 150
    assert server["requests_completed"]["b"] == 80
    disk = _rows(diff, "disk")
    assert disk["seek_s"]["a"] == pytest.approx(8.5)
    assert disk["transfer_s"]["delta"] == pytest.approx(-2.5)


def test_diff_rates_in_percentage_points():
    diff = telemetry.snapshot_diff(SNAP_A, SNAP_B)
    cache = _rows(diff, "cache")
    row = cache["hit_rate_pct"]
    assert row["rate"] is True
    assert row["a"] == pytest.approx(200.0 / 3)  # 40 hits / 60 lookups
    assert row["b"] == pytest.approx(100.0)
    assert row["delta"] == pytest.approx(100.0 / 3)
    assert "pct" not in row  # rates diff in pp, never in percent


def test_diff_one_sided_section_keeps_rows_with_none():
    diff = telemetry.snapshot_diff(SNAP_A, SNAP_B)
    dp = _rows(diff, "datapath")
    assert dp["spans"]["a"] == 50
    assert dp["spans"]["b"] is None
    assert "delta" not in dp["spans"]
    share = dp["span_byte_share_pct"]
    assert share["a"] == pytest.approx(75.0)  # 3072 / 4096


def test_diff_drops_sections_missing_from_both():
    diff = telemetry.snapshot_diff(SNAP_A, SNAP_B)
    assert _rows(diff, "faults") == {}  # neither snapshot has faults


def test_render_diff_table():
    diff = telemetry.snapshot_diff(SNAP_A, SNAP_B)
    text = telemetry.render_diff(diff, "before", "after")
    lines = text.splitlines()
    assert "before" in lines[0] and "after" in lines[0]
    by_metric = {line.split()[1]: line for line in lines[1:] if line.split()}
    assert "-50.0%" in by_metric["sim_seconds"]
    assert "+33.3pp" in by_metric["hit_rate_pct"]
    # one-sided rows render dashes, not crashes
    assert by_metric["spans"].rstrip().endswith("-")


def test_load_snapshot_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(TelemetryError):
        telemetry.load_snapshot(str(bad))
    shapeless = tmp_path / "shapeless.json"
    shapeless.write_text(json.dumps({"hello": 1}))
    with pytest.raises(TelemetryError):
        telemetry.load_snapshot(str(shapeless))
    with pytest.raises(TelemetryError):
        telemetry.load_snapshot(str(tmp_path / "missing.json"))


def test_cli_metrics_diff(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(SNAP_A))
    b.write_text(json.dumps(SNAP_B))
    out = tmp_path / "diff.json"
    rc = main(["metrics", "diff", str(a), str(b), "--json", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "sim_seconds" in text and "hit_rate_pct" in text
    doc = json.loads(out.read_text())
    assert any(sec["layer"] == "engine" for sec in doc["layers"])


def test_cli_metrics_diff_requires_two_paths(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(SNAP_A))
    assert main(["metrics", "diff", str(a)]) == 1
    assert "usage" in capsys.readouterr().err


def test_cli_metrics_still_validates_versions(capsys):
    assert main(["metrics", "escat", "Z", "--fast"]) == 1
    assert "unknown version" in capsys.readouterr().err
