"""The HTTP observability endpoint + observer lifecycle regressions.

``serve(http_port=0)`` binds an ephemeral loopback port exposing
``/metrics`` (strict-parseable Prometheus text), ``/healthz`` and
``/sys/<table>``; ``close()`` shuts it down without leaking the socket
or the serving thread.  The lifecycle half guards against observer
leaks: creating and closing many warehouses/services must not
accumulate registry collectors or snapshotter threads.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.export import parse_exposition
from repro.obs.http import ObservabilityServer
from repro.seismology.warehouse import SeismicWarehouse

COUNT_FILES = "SELECT COUNT(*) AS n FROM mseed.files"


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, dict(resp.headers), resp.read()


@pytest.fixture()
def served(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    svc = wh.serve(max_workers=2, http_port=0)
    try:
        yield wh, svc
    finally:
        svc.close()
        wh.close()


def test_http_port_zero_binds_ephemeral_loopback(served):
    _wh, svc = served
    assert svc.http_port not in (None, 0)
    assert svc.http.url == f"http://127.0.0.1:{svc.http_port}"


def test_metrics_route_serves_strict_exposition(served, demo_repo):
    _wh, svc = served
    svc.session("alice").submit(COUNT_FILES).result()
    status, headers, body = _get(f"{svc.http.url}/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    assert "version=0.0.4" in headers["Content-Type"]
    samples = parse_exposition(body.decode("utf-8"))
    names = {name for name, _labels, _value in samples}
    assert "repro_service_submitted_total" in names
    assert "repro_plan_cache_entries" in names


def test_healthz_reports_ok_then_degraded(served):
    _wh, svc = served
    status, _headers, body = _get(f"{svc.http.url}/healthz")
    payload = json.loads(body)
    assert status == 200 and payload["status"] == "ok"
    assert payload["checks"]["workers_alive"] == 2
    assert "journal_entries" in payload["checks"]
    # A closed service reports degraded (the endpoint itself is gone by
    # then, so assert on the health() dict directly).
    svc.close()
    health = svc.health()
    assert health["status"] == "degraded"
    assert "closed" in health["degraded"]


def test_sys_routes_mirror_sql_scans(served):
    wh, svc = served
    svc.session("alice").submit(COUNT_FILES).result()
    status, _headers, body = _get(f"{svc.http.url}/sys/queries")
    assert status == 200
    payload = json.loads(body)
    assert payload["table"] == "sys.queries"
    sessions = {row["session"] for row in payload["rows"]}
    assert "alice" in sessions
    # Same provider the SQL path scans.
    sql_sessions = {row[0] for row in wh.query(
        "SELECT session FROM sys.queries").rows()}
    assert "alice" in sql_sessions


def test_unknown_routes_and_tables_404(served):
    _wh, svc = served
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(f"{svc.http.url}/sys/nope")
    assert err.value.code == 404
    assert "system_tables" in json.loads(err.value.read())
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(f"{svc.http.url}/shell")
    assert err.value.code == 404


def test_index_route_lists_surface(served):
    _wh, svc = served
    _status, _headers, body = _get(f"{svc.http.url}/")
    payload = json.loads(body)
    assert "/metrics" in payload["routes"]
    assert "queries" in payload["system_tables"]


def test_close_releases_port_and_thread(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    svc = wh.serve(max_workers=1, http_port=0)
    url = svc.http.url
    port = svc.http_port
    server = svc.http
    svc.close()
    wh.close()
    assert svc.http_port is None and server.port is None
    with pytest.raises(urllib.error.URLError):
        _get(f"{url}/healthz")
    # Double close is a no-op; a fresh service can rebind the same port.
    server.stop()
    svc2 = wh.serve(max_workers=1, http_port=port)
    try:
        assert svc2.http_port == port
    finally:
        svc2.close()


def test_http_port_validation(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    try:
        with pytest.raises(Exception):
            wh.serve(http_port=70000)
    finally:
        wh.close()


def test_route_errors_do_not_kill_the_server(served, monkeypatch):
    _wh, svc = served
    monkeypatch.setattr(svc, "health",
                        lambda: (_ for _ in ()).throw(RuntimeError("boom")))
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(f"{svc.http.url}/healthz")
    assert err.value.code == 500
    status, _headers, _body = _get(f"{svc.http.url}/metrics")
    assert status == 200


# ---------------------------------------------------------------------------
# observer lifecycle: no leaked collectors / threads
# ---------------------------------------------------------------------------


def test_fifty_lifecycles_leak_no_collectors_or_threads(demo_repo):
    baseline_threads = threading.active_count()
    registries = []
    for i in range(50):
        wh = SeismicWarehouse(demo_repo.root, mode="lazy")
        svc = wh.serve(max_workers=1, metrics_interval_s=0.05,
                       http_port=0 if i % 5 == 0 else None)
        svc.session("s").submit(COUNT_FILES).result()
        svc.close()
        wh.close()
        registries.append(wh.metrics_registry)
        assert wh.metrics_registry.collector_count() == 0, f"cycle {i}"
    for _ in range(100):
        if threading.active_count() <= baseline_threads:
            break
        threading.Event().wait(0.05)
    assert threading.active_count() <= baseline_threads, (
        f"leaked threads: {[t.name for t in threading.enumerate()]}"
    )


def test_standalone_server_start_stop_idempotent(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    svc = wh.serve(max_workers=1)
    server = ObservabilityServer(svc, port=0)
    try:
        assert server.start() is server.start()
        port = server.port
        assert _get(f"http://127.0.0.1:{port}/healthz")[0] == 200
    finally:
        server.stop()
        server.stop()
        svc.close()
        wh.close()
    assert server.port is None
