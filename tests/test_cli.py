"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import clear_cache


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table2" in out and "figure9" in out


def test_run_command_fast(capsys):
    clear_cache()
    assert main(["run", "table4", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "Table 4" in out and "M_GLOBAL" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "tableX"]) == 1
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_trace_command_writes_sddf(tmp_path, capsys):
    clear_cache()
    out_path = tmp_path / "prism-c.sddf"
    assert main(["trace", "prism", "C", str(out_path), "--fast"]) == 0
    from repro.pablo import read_sddf

    trace = read_sddf(out_path)
    assert len(trace) > 0
    assert trace.meta.application == "PRISM"
    assert trace.meta.version == "C"


def test_parser_rejects_bad_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["bogus"])


def test_parser_requires_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_counters_command(capsys):
    clear_cache()
    assert main(["counters", "escat", "C", "--fast", "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "file:" in out and "common access sizes" in out


def test_suite_command_smoke(capsys):
    assert main(["suite", "--nodes", "4"]) == 0
    out = capsys.readouterr().out
    assert "compulsory-shared-read" in out


def test_rates_command(capsys):
    clear_cache()
    assert main(["rates", "escat", "B", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "M_RECORD" in out and "MB/s" in out


def test_trace_unwritable_output_is_one_line_error(
    tmp_path, monkeypatch, capsys
):
    # An empty cache: the first call resolves the run (and stores it),
    # the second finds the stored bytes.  Both fail at the output.
    from repro.experiments import cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    clear_cache()
    for hit in (False, True):
        before = cache.session_stats()["hits"]
        assert main(["trace", "escat", "A", "/no/such/dir/out.sddf",
                     "--fast"]) == 1
        assert cache.session_stats()["hits"] - before == int(hit)
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


def test_trace_writes_the_stored_bytes_on_a_cache_hit(
    tmp_path, monkeypatch, capsys
):
    from repro import pablo
    from repro.experiments import cache
    from repro.experiments.runner import escat_result, plan_run

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    clear_cache()
    result = escat_result("A", fast=True)
    stored, _ = cache._paths(plan_run("escat", "A", fast=True).key)

    def unreachable(*args, **kwargs):
        raise AssertionError("a cache hit must not load or write a trace")

    for owner, name in ((cache, "read_columns"), (cache, "read_sddf"),
                        (pablo, "write_sddf")):
        monkeypatch.setattr(owner, name, unreachable)
    out = tmp_path / "out.sddf"
    assert main(["trace", "escat", "A", str(out), "--fast"]) == 0
    assert out.read_bytes() == stored.read_bytes()
    assert capsys.readouterr().out == (
        f"wrote {len(result.trace)} events (ESCAT A) to {out}\n"
    )


def test_chaos_unreadable_plan_is_one_line_error(capsys):
    assert main(["chaos", "--plan", "/no/such/plan.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert "fault plan" in err


def test_chaos_malformed_plan_is_one_line_error(tmp_path, capsys):
    bad = tmp_path / "plan.json"
    bad.write_text('{"events": [{"type": "warp_core_breach"}]}')
    assert main(["chaos", "--plan", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")


def test_chaos_command_smoke(capsys):
    assert main(["chaos", "--seed", "2", "--classes", "network",
                 "--app", "escat"]) == 0
    out = capsys.readouterr().out
    assert "chaos report" in out
    assert "fault class: network" in out
    assert "verdict:" in out
