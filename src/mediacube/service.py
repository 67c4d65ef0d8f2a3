"""Minimal HTTP/1.1 query service over one catalog.

The reads are the rows of :data:`READS`, shared with the CLI: GET /records/{code},
GET /resolve/{code}, GET /cube, GET /contexts and GET /report/{name}. POST /usage,
the one write, is the only request that changes the catalog. Responses are canonical
JSON. Every error is answered with a JSON body naming its case; the status comes from
``errors.ERROR_TABLE`` (500 for a case not in it), except that POST /usage answers
409 where a read would answer 404.
"""

from __future__ import annotations

import json
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, NamedTuple
from urllib.parse import parse_qsl, unquote, urlsplit

from . import analytics
from .codes import parse_document_code
from .descriptors import record_to_dict
from .errors import BadRequest, MediaCubeError, NotFound, http_status
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


# -- the reads ----------------------------------------------------------------


class Read(NamedTuple):
    """One read: ``GET path`` (with a ``/{name}`` segment if ``named``) and a CLI command.

    ``run(store, name, pairs)`` takes the ``(name, text)`` pairs of the query string or
    the CLI's flags, and looks the analytics functions up when it runs. ``payload`` of
    its result is the JSON body, ``text`` the CLI's output."""

    path: str
    named: bool
    run: Callable[[CatalogStore, str | None, list[tuple[str, str]]], object]
    payload: Callable[[object], object]
    text: Callable[[object], str]


def _json_text(payload: Callable) -> Callable[[object], str]:
    return lambda result: json.dumps(payload(result), sort_keys=True, ensure_ascii=False,
                                     indent=2) + "\n"


def _lines(rows) -> str:
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


def _cube_payload(result: analytics.CubeResult) -> dict:
    cells = [{"key": dict(zip(result.free_dimensions, cell.key)), "count": cell.count,
              "event_ids": list(cell.event_ids)} for cell in result.cells]
    return {"pattern": result.pattern, "free_dimensions": list(result.free_dimensions),
            "cells": cells, "total": result.total}


#: CLI read command -> its row.
READS: dict[str, Read] = {
    "record-get": Read("/records", True,
                       lambda store, code, _: store.get_record(parse_document_code(code)),
                       record_to_dict, _json_text(record_to_dict)),
    "resolve": Read("/resolve", True,
                    lambda store, code, _: store.sources.resolve(parse_document_code(code)),
                    source_record_to_dict, _json_text(source_record_to_dict)),
    "contexts": Read("/contexts", False, lambda store, *_: store.list_contexts(),
                     lambda entries: list(map(context_to_dict, entries)),
                     lambda entries: _lines(context_to_dict(e).values() for e in entries)),
    "cube": Read("/cube", False, lambda store, _, pairs: analytics.cube_query(
                     store.snapshot(), analytics.parse_query(pairs)),
                 _cube_payload, analytics.CubeResult.to_tsv),
    "report": Read("/report", True,
                   lambda store, name, pairs: analytics.run_report(store.snapshot(), name, pairs),
                   list, _lines),
}
_READ_AT = {read.path: read for read in READS.values()}


class CatalogServer(ThreadingHTTPServer):
    """Threaded server owning the store; POSTs are serialized and persisted."""

    daemon_threads = True

    def __init__(self, store: CatalogStore, catalog_path: str | Path, address):
        self.store = store
        self.catalog_path = Path(catalog_path)
        self.post_lock = threading.Lock()
        super().__init__(address, CatalogRequestHandler)


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
        if self.command != "HEAD":  # a refused HEAD (501) carries no content, RFC 9110 §9.3.2
            self.wfile.write(body)

    def send_error(self, code, message=None, explain=None):
        """Answer in JSON the refusals ``BaseHTTPRequestHandler`` makes itself: a method
        with no handler, a malformed or over-long request line, over-long headers."""
        status = HTTPStatus(code)
        self.request_version = self.protocol_version  # a status line, however garbled the request
        self.close_connection = True
        self._send_json(status, {"error": status.phrase.replace(" ", ""),
                                 "message": message or status.description})

    def _error_reply(self, exc: Exception, write: bool = False) -> tuple[int, dict]:
        """Status and body answering ``exc``; call it inside the ``except`` block."""
        status = http_status(exc, write)
        if status == 500:  # a program fault: keep its traceback on stderr
            self.server.handle_error(self.request, self.client_address)
        return status, {"error": getattr(exc, "case", type(exc).__name__), "message": str(exc)}

    # -- requests -------------------------------------------------------------

    def do_GET(self):
        url = urlsplit(self.path)
        try:
            root, slash, name = url.path[1:].partition("/")
            read = _READ_AT.get("/" + root)
            if read is None or read.named != bool(slash) or (slash and not name):
                raise NotFound(f"no endpoint GET {url.path}")
            pairs = parse_qsl(url.query, keep_blank_values=True)
            reply = 200, read.payload(read.run(self.server.store, unquote(name), pairs))
        except Exception as exc:
            reply = self._error_reply(exc)
        self._send_json(*reply)

    def do_POST(self):
        url = urlsplit(self.path)
        try:
            if url.path != "/usage":
                raise NotFound(f"no endpoint POST {url.path}")
            reply = self._post_usage()
        except Exception as exc:  # a POST elsewhere is answered 404, not 409
            reply = self._error_reply(exc, write=url.path == "/usage")
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
