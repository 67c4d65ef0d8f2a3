"""Minimal HTTP/1.1 query service over one catalog.

Endpoints mirror the CLI: GET /records/{code}, GET /resolve/{code},
GET /cube, GET /contexts, and POST /usage. Responses use the canonical
JSON serialization. Every error is answered with a JSON body naming its
case; the status comes from ``errors.ERROR_TABLE`` (500 for a case not in
it), except that POST /usage answers 409 where a read would answer 404.
Only POST /usage mutates the catalog.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qsl, unquote, urlsplit

from . import analytics
from .codes import parse_document_code
from .descriptors import record_to_dict
from .errors import BadRequest, MediaCubeError, http_status
from .federation import source_record_to_dict
from .store import _ENCODER, CatalogStore, context_to_dict, parse_usage_event, read_json

#: Largest request body read; a longer one is answered 413 unread.
MAX_BODY_BYTES = 64 * 1024
#: Seconds a connection may stay silent; a body late by more is answered 408.
REQUEST_TIMEOUT_S = 10.0


class PayloadTooLarge(MediaCubeError):
    """A request body over :data:`MAX_BODY_BYTES`."""


class RequestTimeout(MediaCubeError):
    """A request body that did not arrive within :data:`REQUEST_TIMEOUT_S`."""


class CatalogServer(ThreadingHTTPServer):
    """Threaded server owning the store; POSTs are serialized and persisted."""

    daemon_threads = True

    def __init__(self, store: CatalogStore, catalog_path: str | Path, address):
        self.store = store
        self.catalog_path = Path(catalog_path)
        self.post_lock = threading.Lock()
        super().__init__(address, CatalogRequestHandler)


def _no_endpoint(path: str) -> tuple[int, dict]:
    return 404, {"error": "NotFound", "message": f"no endpoint {path}"}


class CatalogRequestHandler(BaseHTTPRequestHandler):
    server: CatalogServer
    # Socket timeout: headers that never complete close the connection
    # (BaseHTTPRequestHandler), a body that never completes gets 408.
    timeout = REQUEST_TIMEOUT_S

    # -- plumbing -------------------------------------------------------------

    def log_message(self, format, *args):
        pass

    def _send_json(self, status: int, payload) -> None:
        body = _ENCODER.encode(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error_reply(self, exc: Exception, write: bool = False) -> tuple[int, dict]:
        """Status and body answering ``exc``; call it inside the ``except`` block."""
        status = http_status(exc, write)
        if status == 500:  # a program fault: keep its traceback on stderr
            self.server.handle_error(self.request, self.client_address)
        return status, {"error": getattr(exc, "case", type(exc).__name__), "message": str(exc)}

    # -- GET ------------------------------------------------------------------

    def do_GET(self):
        url = urlsplit(self.path)
        try:
            if url.path == "/contexts":
                reply = self._get_contexts()
            elif url.path == "/cube":
                reply = self._get_cube(url.query)
            elif url.path.startswith("/records/"):
                reply = self._get_record(unquote(url.path[len("/records/"):]))
            elif url.path.startswith("/resolve/"):
                reply = self._get_resolve(unquote(url.path[len("/resolve/"):]))
            else:
                reply = _no_endpoint(url.path)
        except Exception as exc:
            reply = self._error_reply(exc)
        self._send_json(*reply)

    def _get_record(self, code_text: str):
        record = self.server.store.get_record(parse_document_code(code_text))
        return 200, record_to_dict(record)

    def _get_resolve(self, code_text: str):
        raw = self.server.store.sources.resolve(parse_document_code(code_text))
        return 200, source_record_to_dict(raw)

    def _get_contexts(self):
        return 200, list(map(context_to_dict, self.server.store.list_contexts()))

    def _get_cube(self, query_text: str):
        query = analytics.parse_query(parse_qsl(query_text, keep_blank_values=True))
        result = analytics.cube_query(self.server.store.snapshot(), query)
        return 200, {
            "pattern": result.pattern,
            "free_dimensions": list(result.free_dimensions),
            "cells": [
                {
                    "key": dict(zip(result.free_dimensions, cell.key)),
                    "count": cell.count,
                    "event_ids": list(cell.event_ids),
                }
                for cell in result.cells
            ],
            "total": result.total,
        }

    # -- POST -----------------------------------------------------------------

    def do_POST(self):
        url = urlsplit(self.path)
        try:
            reply = self._post_usage() if url.path == "/usage" else _no_endpoint(url.path)
        except Exception as exc:
            reply = self._error_reply(exc, write=True)
        self._send_json(*reply)

    def _post_usage(self):
        event = parse_usage_event(self._read_json_object())
        with self.server.post_lock:
            event_id = self.server.store.record_usage_and_save(event, self.server.catalog_path)
        return 201, {"event_id": event_id}

    def _read_json_object(self) -> dict:
        length = self.headers.get("Content-Length") or "0"
        # RFC 7230 §3.3.3: an invalid Content-Length is answered 400.
        if not (length.isascii() and length.isdigit()):
            raise BadRequest(f"invalid Content-Length {length!r}")
        if int(length) > MAX_BODY_BYTES:
            raise PayloadTooLarge(f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
        try:
            body = self.rfile.read(int(length))
        except TimeoutError:
            raise RequestTimeout(f"body of {length} bytes not sent in {self.timeout} s") from None
        data = read_json(body or b"{}")
        if not isinstance(data, dict):
            raise BadRequest("body must be a JSON object")
        return data


def make_server(store: CatalogStore, catalog_path: str | Path,
                host: str = "127.0.0.1", port: int = 0) -> CatalogServer:
    """Build the service; ``port=0`` picks a free port (see server_address)."""
    return CatalogServer(store, catalog_path, (host, port))
