"""Span recording around the package's public entry points.

``Tracer.install`` replaces each entry point, under the name its callers
look it up by, with a wrapper that records a span: name, start, end,
parent span and request id. Spans stay in memory until the run ends.
``layer_metrics`` turns them into the per-layer figures; a layer's self
time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter

import mediacube.analytics
import mediacube.cli
import mediacube.federation
import mediacube.store
from mediacube.federation import SourceRegistry
from mediacube.service import CatalogRequestHandler
from mediacube.store import CatalogStore

LAYERS = ("federation", "descriptors", "store", "analytics", "service", "cli")
REPORTS = {"document_importance": "importance", "user_interest": "interest",
           "usage_evolution": "evolution", "usage_type_ratio": "type-ratio",
           "context_by_social_class": "social-class"}
HARVEST_KINDS = ("tabular", "file-tree", "remote-line", "remote-line-linewise")
CLI_COMMANDS = ("source-register", "ingest", "user-register", "usage-log", "cube",
                "report", "record-get", "resolve")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "attrs")

    def __init__(self, span_id, name, start, parent, request):
        self.id, self.name, self.start, self.parent, self.request = (
            span_id, name, start, parent, request)
        self.end = start
        self.attrs = {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class NullTracer:
    """Stands in when tracing is off; records nothing."""

    @contextmanager
    def span(self, name, **attrs):
        yield None

    def wrap_lock(self, lock):
        return lock


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), name, perf_counter(),
                    parent.id if parent else None,
                    parent.request if parent else next(self._requests))
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name, **attrs):
        span = self.start(name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self.finish(span)

    def wrap_lock(self, lock):
        """A lock whose acquisitions record the wait as a span."""
        tracer = self

        class TracedLock:
            def __enter__(self):
                span = tracer.start("service.post_lock_wait")
                lock.acquire()
                tracer.finish(span)
                return self

            def __exit__(self, *exc_info):
                lock.release()

        return TracedLock()

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, name: str, on_result=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.start(name)
            try:
                result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, result)
                return result
            finally:
                tracer.finish(span)

        self._undo.append((owner, attr, raw))
        setattr(owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)

    def install(self) -> None:
        def harvested(span, args, result):
            span.attrs.update(source=args[1], records=len(result.records),
                              rows=len(result.records) + len(result.problems))

        def ingested(span, args, result):
            span.attrs["ingested"] = len(result.ingested)

        def saved(span, args, result):
            span.attrs["bytes"] = os.path.getsize(args[1])

        def queried(span, args, result):
            span.attrs.update(pattern=result.pattern, matched=result.total,
                              events=len(args[0].events))

        self._patch(SourceRegistry, "harvest", "federation.harvest", harvested)
        self._patch(SourceRegistry, "resolve", "federation.resolve")
        self._patch(mediacube.federation, "map_to_generic", "federation.map_to_generic")
        self._patch(mediacube.federation, "validate_record", "descriptors.validate_record")
        self._patch(mediacube.store, "validate_record", "descriptors.validate_record")
        self._patch(mediacube.cli, "ingest_source", "federation.ingest_source", ingested)
        for method in ("put_record", "record_usage", "snapshot", "load"):
            self._patch(CatalogStore, method, f"store.{method}")
        self._patch(CatalogStore, "save", "store.save", saved)
        self._patch(mediacube.analytics, "cube_query", "analytics.cube_query", queried)
        for function, report in REPORTS.items():
            self._patch(mediacube.analytics, function, f"analytics.report.{report}")

        def endpoint(span, args, result):
            span.attrs["endpoint"] = args[0].path.split("?")[0].strip("/").split("/")[0]

        self._patch(CatalogRequestHandler, "do_GET", "service.do_GET", endpoint)
        self._patch(CatalogRequestHandler, "do_POST", "service.do_POST")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                      "request": s.request, "start": s.start, "end": s.end,
                                      **s.attrs}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[Span], source_kinds: dict[str, str],
                  body_bytes: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from one traced run; 0 where the run made no such call."""
    by_name: dict[str, list[Span]] = {}
    child_ms: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms

    def named(name):
        return by_name.get(name, [])

    def self_ms(s):
        return s.ms - child_ms.get(s.id, 0.0)

    out: dict[str, tuple[float, str]] = {}

    harvest = named("federation.harvest")
    for kind in HARVEST_KINDS:
        mine = [s for s in harvest if source_kinds.get(s.attrs["source"]) == kind]
        rows = sum(s.attrs["rows"] for s in mine)
        out[f"federation.harvest_us_per_record.{kind}"] = (
            sum(s.ms for s in mine) * 1000.0 / rows if rows else 0.0, "us")
    out["federation.map_to_generic_us"] = (
        _p50([s.ms * 1000.0 for s in named("federation.map_to_generic")]), "us")
    rows = sum(s.attrs["rows"] for s in harvest)
    ingested = sum(s.attrs["ingested"] for s in named("federation.ingest_source"))
    out["federation.ingest_yield"] = (ingested / rows if rows else 0.0, "ratio")
    out["federation.resolve_ms"] = (_p50([s.ms for s in named("federation.resolve")]), "ms")

    validate = named("descriptors.validate_record")
    puts = named("store.put_record")
    out["descriptors.validate_record_us"] = (_p50([s.ms * 1000.0 for s in validate]), "us")
    out["descriptors.validate_calls_per_record"] = (
        len(validate) / len(puts) if puts else 0.0, "ratio")

    put_us = [s.ms * 1000.0 for s in sorted(puts, key=lambda s: s.start)]
    out["store.put_record_us.p50"] = (_p50(put_us), "us")
    out["store.put_record_us.p99"] = (percentile(put_us, 0.99), "us")
    head, tail = _p50(put_us[:1000]), _p50(put_us[-1000:])
    out["store.put_record_growth"] = (tail / head if head else 0.0, "ratio")
    out["store.load_ms"] = (_p50([s.ms for s in named("store.load")]), "ms")
    saves = named("store.save")
    out["store.save_ms"] = (_p50([s.ms for s in saves]), "ms")
    usage = named("store.record_usage")
    usage_requests = {s.request for s in usage}
    written = sum(s.attrs["bytes"] for s in saves if s.request in usage_requests)
    out["store.bytes_written_per_event"] = (written / len(usage) if usage else 0.0, "B")
    out["store.record_usage_us"] = (_p50([s.ms * 1000.0 for s in usage]), "us")
    out["store.snapshot_ms"] = (_p50([s.ms for s in named("store.snapshot")]), "ms")

    cubes = named("analytics.cube_query")
    for pattern in range(1, 17):
        out[f"analytics.cube_query_ms.p{pattern:02d}"] = (
            _p50([s.ms for s in cubes if s.attrs["pattern"] == pattern]), "ms")
    ratios = [s.attrs["matched"] / s.attrs["events"] for s in cubes if s.attrs["events"]]
    out["analytics.matched_event_ratio"] = (statistics.fmean(ratios) if ratios else 0.0, "ratio")
    for report in REPORTS.values():
        out[f"analytics.report_ms.{report}"] = (
            _p50([s.ms for s in named(f"analytics.report.{report}")]), "ms")

    gets = [s for s in named("service.do_GET") if s.attrs.get("endpoint") == "cube"]
    out["service.handler_self_ms.get_cube"] = (_p50([self_ms(s) for s in gets]), "ms")
    out["service.handler_self_ms.post_usage"] = (
        _p50([self_ms(s) for s in named("service.do_POST")]), "ms")
    waits = [s.ms for s in named("service.post_lock_wait")]
    out["service.post_lock_wait_ms"] = (statistics.fmean(waits) if waits else 0.0, "ms")
    out["service.cube_body_bytes"] = (_p50(body_bytes), "B")

    commands = named("cli.main")
    for command in ("ingest", "usage-log", "cube", "report", "resolve"):
        out[f"cli.command_ms.{command}"] = (
            _p50([s.ms for s in commands if s.attrs["command"] == command]), "ms")
    for command in CLI_COMMANDS:
        out[f"cli.self_ms.{command}"] = (
            _p50([self_ms(s) for s in commands if s.attrs["command"] == command]), "ms")

    # Busy time per request; time spent waiting for the post lock is not busy.
    requests = len({s.request for s in spans}) or 1
    for layer in LAYERS:
        busy = sum(self_ms(s) for s in spans
                   if s.name.startswith(layer + ".") and not s.name.endswith("_wait"))
        out[f"layer_self_ms_per_request.{layer}"] = (busy / requests, "ms")
    return out
