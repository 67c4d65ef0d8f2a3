"""The names the benchmark's tracer and workloads reach into must exist.

``perfbench/tracing.py`` replaces package attributes by name, and a refactor
that drops one would otherwise fail only inside a traced benchmark run.
"""

from __future__ import annotations

import importlib
import json
import threading
import urllib.request
from pathlib import Path

from catalog_fixtures import write_tabular_source
from mediacube.analytics import REPORTS
from mediacube.cli import main
from mediacube.federation import mapping_to_dict
from mediacube.service import make_server
from mediacube.store import CatalogStore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_every_hook_and_restores_it(monkeypatch):
    tracer = _tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert patched
        for owner, attr, raw in patched:
            assert _current(owner, attr) is not raw, attr
    finally:
        tracer.uninstall()
    for owner, attr, raw in patched:
        assert _current(owner, attr) is raw, attr


def test_served_workload_can_wrap_the_post_lock(monkeypatch, tmp_path):
    tracing = _tracing(monkeypatch)
    server = make_server(CatalogStore(), tmp_path / "catalog.jsonl")
    try:
        server.post_lock = tracing.Tracer().wrap_lock(server.post_lock)
        with server.post_lock:
            pass
    finally:
        server.server_close()


def test_a_traced_cli_session_makes_spans_in_every_busy_layer(monkeypatch, tmp_path, capsys):
    # The curator-cli workload fails a traced run that sees no time in a busy layer;
    # the workload opens each ``cli`` span itself, so that layer is left out here.
    tracer = _tracing(monkeypatch).Tracer()
    busy = [layer for layer in importlib.import_module("workloads").BUSY_LAYERS["curator-cli"]
            if layer != "cli"]
    descriptor = write_tabular_source(tmp_path / "books.tsv", count=3)
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps(mapping_to_dict(descriptor.mapping)), encoding="utf-8")
    session = [
        ["source-register", "--source-id", "lib", "--kind", "tabular",
         "--location", descriptor.location, "--mapping", str(mapping)],
        ["ingest", "lib"],
        ["user-register", "--user-id", "u1", "--name", "Ann"],
        ["usage-log", "--doc", "lib:b001", "--context", "teaching", "--user", "u1",
         "--type", "occasional"],
        ["cube"],
        ["report", "importance"],
    ]
    tracer.install()
    try:
        codes = [main(["--catalog", str(tmp_path / "catalog.jsonl"), *argv]) for argv in session]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(session), capsys.readouterr().err
    seen = {span.name.split(".")[0] for span in tracer.spans}
    assert [layer for layer in busy if layer not in seen] == []


def test_every_report_read_calls_the_traced_report_function(monkeypatch, five_event_catalog,
                                                            capsys):
    # The reads look the report functions up when they run: a table that captured them
    # at import would bypass the tracer and read every analytics.report_ms.* as 0.
    tracing = _tracing(monkeypatch)
    names = list(tracing.REPORTS.values())
    assert sorted(names) == sorted(REPORTS)
    expected = [f"analytics.report.{name}" for name in names]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [main(["--catalog", str(five_event_catalog), "report", name, "--user", "u1"])
                 for name in names]
        cli_spans = [s.name for s in tracer.spans if s.name.startswith("analytics.report.")]
        del tracer.spans[:]
        server = make_server(CatalogStore.load(five_event_catalog), five_event_catalog)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02})
        thread.start()
        try:
            base = "http://%s:%d" % server.server_address[:2]
            statuses = []
            for name in names:
                with urllib.request.urlopen(f"{base}/report/{name}?user=u1") as response:
                    statuses.append(response.status)
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        http_spans = [s.name for s in tracer.spans if s.name.startswith("analytics.report.")]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(names), capsys.readouterr().err
    assert statuses == [200] * len(names)
    assert cli_spans == http_spans == expected
