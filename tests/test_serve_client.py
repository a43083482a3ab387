"""Tests for the serve client: its typed error mapping (400/404/409/503
each raise their exception class, connection-refused maps to
``ServeConnectionError``) and concurrent clients against one server."""

import io
import json
import socket
import threading
import urllib.error

import pytest

from repro.errors import (
    ServeConnectionError,
    ServeDuplicateJobError,
    ServeJobNotFoundError,
    ServeProtocolError,
    ServeSaturatedError,
    ServeSpecError,
)
from repro.serve import ReproServeServer, ServeClient
from repro.serve.client import STATUS_ERRORS


@pytest.fixture
def serve_pair(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    server = ReproServeServer(
        port=0, workers=2, retries=1,
        journal=tmp_path / "serve.jsonl",
    )
    server.start()
    yield server, ServeClient(server.url)
    server.stop(drain_timeout=30.0)


# -- typed HTTP error mapping ---------------------------------------------

def test_400_bad_spec_raises_spec_error(serve_pair):
    _, client = serve_pair
    with pytest.raises(ServeSpecError):
        client.submit({"kind": "nope", "version": "A"})
    with pytest.raises(ServeSpecError):
        client.submit({"kind": "probe", "version": "ok", "nope": 1})
    with pytest.raises(ServeSpecError):
        client.submit({"kind": "probe", "version": "ok",
                       "seed": "not-an-int"})


def test_404_unknown_job_raises_not_found(serve_pair):
    _, client = serve_pair
    with pytest.raises(ServeJobNotFoundError):
        client.job("j99999-deadbeef")
    with pytest.raises(ServeJobNotFoundError):
        client.result("j99999-deadbeef")
    with pytest.raises(ServeJobNotFoundError):
        list(client.events("j99999-deadbeef"))
    # Result of a non-done job is also a 404 (nothing to fetch yet).
    doc = client.submit({"kind": "probe", "version": "slow",
                         "seed": 601})
    if doc["state"] != "done":
        with pytest.raises(ServeJobNotFoundError):
            client.result(doc["job"])
    client.wait(doc["job"], timeout=60.0)


def test_409_name_conflict_raises_duplicate(serve_pair):
    _, client = serve_pair
    doc = client.submit({"kind": "probe", "version": "ok",
                         "seed": 611, "name": "taken"})
    client.wait(doc["job"], timeout=60.0)
    with pytest.raises(ServeDuplicateJobError):
        client.submit({"kind": "probe", "version": "ok",
                       "seed": 612, "name": "taken"})


def test_503_when_saturated_or_draining(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    server = ReproServeServer(port=0, workers=1, max_queue=1,
                              journal=tmp_path / "serve.jsonl")
    server.start()
    try:
        client = ServeClient(server.url)
        first = client.submit({"kind": "probe", "version": "slow",
                               "seed": 621})
        # Backlog (pending + in-flight) is now 1 >= max_queue: a
        # second distinct fresh spec must be refused with 503.
        with pytest.raises(ServeSaturatedError):
            client.submit({"kind": "probe", "version": "slow",
                           "seed": 622})
        # Repeats of the backlogged spec still dedup (no new slot).
        dup = client.submit({"kind": "probe", "version": "slow",
                             "seed": 621})
        assert dup["job"] == first["job"]
        client.wait(first["job"], timeout=60.0)
        # Draining refuses fresh work but still answers from cache.
        server.manager.draining = True
        with pytest.raises(ServeSaturatedError):
            client.submit({"kind": "probe", "version": "slow",
                           "seed": 623})
        hit = client.submit({"kind": "probe", "version": "slow",
                             "seed": 621})
        assert hit["cache_hit"] is True
    finally:
        server.stop(drain_timeout=30.0)


def test_connection_refused_raises_connection_error():
    # Bind-then-close guarantees a dead port.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    client = ServeClient(f"http://127.0.0.1:{port}", timeout=2.0)
    with pytest.raises(ServeConnectionError):
        client.submit({"kind": "probe", "version": "ok", "seed": 1})
    with pytest.raises(ServeConnectionError):
        client.jobs()


def test_unexpected_status_maps_to_protocol_error():
    err = urllib.error.HTTPError(
        "http://x/v1/runs", 500, "boom", {},
        io.BytesIO(json.dumps({"error": "internal"}).encode()),
    )
    mapped = ServeClient._map_http_error(err)
    assert isinstance(mapped, ServeProtocolError)
    assert "internal" in str(mapped)
    # Non-JSON bodies degrade to the HTTPError's own message.
    err = urllib.error.HTTPError(
        "http://x/v1/runs", 418, "teapot", {}, io.BytesIO(b"<html>")
    )
    assert isinstance(
        ServeClient._map_http_error(err), ServeProtocolError
    )


def test_status_error_table_is_total():
    assert STATUS_ERRORS == {
        400: ServeSpecError,
        404: ServeJobNotFoundError,
        409: ServeDuplicateJobError,
        503: ServeSaturatedError,
    }


# -- concurrent clients ---------------------------------------------------

def _drive(url, per_thread):
    """Run each list of specs on its own thread and client, submitting
    one spec after the previous one's job ended; returns the terminal
    job documents and the errors raised."""
    docs, errors = [], []

    def loop(specs):
        client = ServeClient(url)
        for spec in specs:
            try:
                doc = client.submit(spec)
                docs.append(client.wait(doc["job"], timeout=60.0))
            except Exception as exc:  # noqa: BLE001 - asserted empty
                errors.append(exc)

    threads = [threading.Thread(target=loop, args=(specs,))
               for specs in per_thread]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in threads)
    return docs, errors


def _probe(seed):
    return {"kind": "probe", "version": "ok", "seed": seed}


def test_run_mix_shapes_and_counts(serve_pair):
    # Two clients, each alternating a prewarmed hit with a fresh seed.
    server, client = serve_pair
    doc = client.submit(_probe(700))
    client.wait(doc["job"], timeout=60.0)
    seeds = [[700, 710, 700, 711, 700, 712], [700, 713, 700, 714, 700, 715]]
    docs, errors = _drive(
        server.url, [[_probe(seed) for seed in row] for row in seeds]
    )
    assert not errors
    assert len(docs) == 12
    assert all(doc["state"] == "done" for doc in docs)
    assert sum(doc["cache_hit"] for doc in docs) == 6
    # Six distinct fresh seeds -> six simulations, none deduped.
    counters = server.manager.counters
    assert counters["executed"] == 7  # prewarm + 6
    assert counters["dedup_hits"] == 0
    assert counters["cache_hits"] == 6


def test_concurrent_clients_thread_safety(serve_pair):
    # A small burst of mixed traffic from several threads: no errors,
    # every job terminal, counters consistent.
    server, client = serve_pair
    prewarm = client.submit(_probe(800))
    client.wait(prewarm["job"], timeout=60.0)
    docs, errors = _drive(server.url, [
        [_probe(800)] * 4 + [_probe(810 + c)] for c in range(4)
    ])
    assert not errors
    assert len(docs) == 20
    assert all(doc["state"] == "done" for doc in docs)
    assert server.manager.state_counts() == {
        "queued": 0, "running": 0, "done": 21, "failed": 0,
    }
    counters = server.manager.counters
    assert counters["failed"] == 0
    assert counters["done"] >= 20
