"""The names the benchmark's tracer and workloads reach into must exist.

``perfbench/tracing.py`` replaces package attributes by name, and a refactor
that drops one would otherwise fail only inside a traced benchmark run.
"""

from __future__ import annotations

import importlib
from pathlib import Path

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
