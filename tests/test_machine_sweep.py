"""Tests for the machine-configuration sweep experiment."""

from repro.experiments import clear_cache, run_experiment
from repro.experiments.machine_sweep import machine_sweep


def test_machine_sweep_fast():
    clear_cache()
    results, text = machine_sweep(fast=True)
    assert "capture" in results
    # I/O-node scaling: more servers never hurt the replayed I/O time.
    assert results["16 I/O nodes"] <= results["4 I/O nodes"]
    assert results["4 I/O nodes"] <= results["1 I/O nodes"]
    # Tiny stripes fragment the 128 KB records and cost more.
    assert results["64K stripe"] <= results["16K stripe"]
    assert "Machine-configuration sweep" in text


def test_sweep_registered():
    text = run_experiment("sweep", fast=True)
    assert "I/O node-seconds" in text
