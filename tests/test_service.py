from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from contextlib import contextmanager

import pytest

from catalog_fixtures import make_five_event_store, write_tabular_source
from mediacube.cli import main
from mediacube.federation import ingest_source
from mediacube.service import (
    MAX_BODY_BYTES,
    REQUEST_TIMEOUT_S,
    CatalogRequestHandler,
    make_server,
)
from mediacube.store import CatalogStore


@pytest.fixture
def served_catalog(five_event_catalog):
    store = CatalogStore.load(five_event_catalog)
    server = make_server(store, five_event_catalog, port=0)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", five_event_catalog
    finally:
        server.shutdown()
        server.server_close()


def get(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


def post(base: str, path: str, payload: dict):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=body, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


def test_cube_endpoint_matches_fixture(served_catalog):
    base, _ = served_catalog
    status, body = get(base, "/cube?context=teaching")
    assert status == 200
    assert body["pattern"] == 5
    assert body["total"] == 3
    assert body["free_dimensions"] == ["document", "user", "time"]
    cells = {(c["key"]["document"], c["key"]["user"], c["key"]["time"]): c["count"]
             for c in body["cells"]}
    assert cells == {
        ("fx:d1", "u1", "2024-01-01"): 1,
        ("fx:d1", "u1", "2024-01-02"): 1,
        ("fx:d2", "u1", "2024-01-02"): 1,
    }


def test_cube_endpoint_time_range(served_catalog):
    base, _ = served_catalog
    status, body = get(
        base, "/cube?time=2024-01-01T00:00:00Z/2024-01-02T00:00:00Z")
    assert status == 200
    assert body["total"] == 2
    status, body = get(base, "/cube?time=2024-01-02")
    assert status == 200
    assert body["total"] == 3


def test_cube_endpoint_month_granularity(served_catalog):
    base, _ = served_catalog
    status, body = get(base, "/cube?context=teaching&granularity=month")
    assert status == 200
    assert body["total"] == 3
    assert {c["key"]["time"] for c in body["cells"]} == {"2024-01"}


def test_cube_endpoint_bad_inputs(served_catalog):
    base, _ = served_catalog
    assert get(base, "/cube?time=2024-13-01")[0] == 400
    assert get(base, "/cube?granularity=week")[0] == 400
    assert get(base, "/cube?colour=red")[0] == 400
    status, body = get(base, "/cube?user=u9")
    assert status == 404
    assert body["error"] == "UnknownUser"


def test_records_endpoint(served_catalog):
    base, _ = served_catalog
    status, body = get(base, "/records/fx:d1")
    assert status == 200
    assert body["document_code"] == "fx:d1"
    assert get(base, "/records/s01:ghost")[0] == 404
    assert get(base, "/records/not=a=code")[0] == 400


def test_resolve_endpoint_unknown_source(served_catalog):
    base, _ = served_catalog
    status, body = get(base, "/resolve/s99:x")
    assert status == 404
    assert body["error"] == "UnknownSource"


def test_contexts_endpoint(served_catalog):
    base, _ = served_catalog
    status, body = get(base, "/contexts")
    assert status == 200
    assert [entry["label"] for entry in body] == [
        "documentation", "entertainment", "learning", "teaching"]
    assert all(entry["origin"] == "static" for entry in body)


def test_unknown_endpoint(served_catalog):
    base, _ = served_catalog
    assert get(base, "/nope")[0] == 404


def test_post_usage_unknown_user_conflict(served_catalog):
    base, _ = served_catalog
    status, body = post(base, "/usage", {
        "document_code": "fx:d1", "context": "teaching",
        "user_id": "u9", "use_type": "occasional",
        "timestamp": "2024-02-01T00:00:00Z"})
    assert status == 409
    assert body["error"] == "UnknownUser"


def test_post_usage_appends_and_persists(served_catalog):
    base, path = served_catalog
    status, body = post(base, "/usage", {
        "document_code": "fx:d2", "context": "fieldwork",
        "user_id": "u1", "use_type": "repetitive",
        "timestamp": "2024-02-01T08:30:00Z"})
    assert status == 201
    assert body["event_id"] == 6
    reloaded = CatalogStore.load(path)
    assert len(reloaded.snapshot().events) == 6
    assert "fieldwork" in {c.label for c in reloaded.list_contexts()}


def test_post_usage_malformed_body(served_catalog):
    base, _ = served_catalog
    assert post(base, "/usage", {"context": "teaching"})[0] == 400
    assert post(base, "/usage", {
        "document_code": "fx:d1", "context": "teaching",
        "user_id": "u1", "use_type": "occasional",
        "timestamp": "yesterday"})[0] == 400


def test_gets_are_side_effect_free(served_catalog):
    base, path = served_catalog
    before = path.read_bytes()
    get(base, "/cube?context=teaching")
    get(base, "/records/fx:d1")
    get(base, "/contexts")
    assert path.read_bytes() == before


# -- the shared front-end layer: every request gets a status and a JSON body --

USAGE = {"document_code": "fx:d1", "context": "fieldwork", "user_id": "u1",
         "use_type": "occasional", "timestamp": "2024-02-01T00:00:00Z"}


@contextmanager
def serving(store, catalog_path):
    server = make_server(store, catalog_path, port=0)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


def raw_post(base: str, headers: str, body: bytes = b""):
    """Send a hand-written POST /usage; return (status, JSON body) or fail on a hang."""
    host, port = urllib.parse.urlsplit(base).netloc.split(":")
    request = f"POST /usage HTTP/1.1\r\nHost: {host}\r\n{headers}\r\n".encode() + body
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):  # the server closes after one reply
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1."), reply
    return int(head.split()[1]), json.loads(payload)


@pytest.mark.parametrize("length", ["abc", "-5", "1e3", "+12"])
def test_post_invalid_content_length_is_bad_request(served_catalog, length):
    base, _ = served_catalog
    status, body = raw_post(base, f"Content-Length: {length}\r\n")
    assert (status, body["error"]) == (400, "BadRequest")


def test_post_oversized_body_is_refused_unread(served_catalog):
    base, path = served_catalog
    before = path.read_bytes()
    status, body = raw_post(base, f"Content-Length: {MAX_BODY_BYTES + 1}\r\n")
    assert (status, body["error"]) == (413, "PayloadTooLarge")
    assert path.read_bytes() == before


def test_post_body_at_the_cap_is_read(served_catalog):
    base, _ = served_catalog
    body = json.dumps(USAGE).encode()
    body += b" " * (MAX_BODY_BYTES - len(body))
    status, reply = raw_post(base, f"Content-Length: {len(body)}\r\n", body)
    assert status == 201 and reply == {"event_id": 6}


@pytest.mark.parametrize("field", ["document_code", "context", "user_id",
                                   "use_type", "timestamp"])
@pytest.mark.parametrize("value", [None, 5])
def test_post_non_string_field_is_rejected(served_catalog, field, value):
    base, path = served_catalog
    before = get(base, "/contexts")
    status, body = post(base, "/usage", {**USAGE, field: value})
    assert (status, body["error"]) == (400, "BadRequest")
    assert get(base, "/contexts") == before
    assert len(CatalogStore.load(path).snapshot().events) == 5


def test_resolve_with_missing_source_file_is_bad_gateway(tmp_path):
    books = tmp_path / "books.tsv"
    store = CatalogStore()
    store.sources.register(write_tabular_source(books, count=3))
    ingest_source(store, "lib")
    books.unlink()
    with serving(store, tmp_path / "catalog.jsonl") as base:
        status, body = get(base, "/resolve/lib:b001")
    assert (status, body["error"]) == (502, "SourceUnreachable")


def test_post_storage_failure_is_service_unavailable(tmp_path):
    with serving(make_five_event_store(), tmp_path / "missing" / "catalog.jsonl") as base:
        status, body = post(base, "/usage", USAGE)
    assert (status, body["error"]) == (503, "StorageIO")


def test_failed_save_leaves_the_store_as_it_was(tmp_path):
    store = make_five_event_store()
    path = tmp_path / "missing" / "catalog.jsonl"
    before = store.snapshot()
    with serving(store, path) as base:
        status, body = post(base, "/usage", USAGE)  # a novel context
        assert (status, body["error"]) == (503, "StorageIO")
        assert store.snapshot() == before
        assert get(base, "/cube")[1]["total"] == 5
        assert "fieldwork" not in {c["label"] for c in get(base, "/contexts")[1]}
        path.parent.mkdir()
        assert post(base, "/usage", USAGE) == (201, {"event_id": 6})
    assert CatalogStore.load(path).snapshot() == store.snapshot()
    assert len(store.snapshot().event_ids) == 6


def test_unexpected_failure_is_internal_error(tmp_path):
    store = make_five_event_store()
    store.list_contexts = lambda: 1 / 0
    with serving(store, tmp_path / "catalog.jsonl") as base:
        status, body = get(base, "/contexts")
    assert (status, body["error"]) == (500, "ZeroDivisionError")


def test_cube_endpoint_rejects_blank_and_repeated_values(served_catalog):
    base, _ = served_catalog
    for query in ("context=", "doc=", "user", "time=", "context=teaching&context=learning"):
        status, body = get(base, f"/cube?{query}")
        assert (status, body["error"]) == (400, "BadRequest"), query
    assert get(base, "/cube?granularity=")[0] == 400


@pytest.mark.parametrize("fix, case", [
    ("context=", "BadRequest"),
    ("colour=red", "BadRequest"),
    ("time=2024-13-01", "BadRequest"),
    ("doc=nocode", "BadRequest"),
    ("user=u9", "UnknownUser"),
    ("context=fieldwork", "UnknownContext"),
    ("time=2024-01-02T00:00:00Z/2024-01-01T00:00:00Z", "InvalidTimeRange"),
])
def test_cli_and_service_agree_on_bad_filters(served_catalog, capsys, fix, case):
    base, path = served_catalog
    dim, _, value = fix.partition("=")
    status, body = get(base, "/cube?" + urllib.parse.urlencode({dim: value}))
    code = main(["--catalog", str(path), "cube", "--fix", fix])
    err = capsys.readouterr().err
    assert body["error"] == case and err.startswith(f"{case}: ")
    expected = {"BadRequest": (400, 2), "UnknownUser": (404, 1),
                "UnknownContext": (404, 1), "InvalidTimeRange": (400, 1)}[case]
    assert (status, code) == expected


def test_post_short_body_times_out_with_408(served_catalog, monkeypatch):
    base, path = served_catalog
    before = path.read_bytes()
    assert CatalogRequestHandler.timeout == REQUEST_TIMEOUT_S > 0
    monkeypatch.setattr(CatalogRequestHandler, "timeout", 0.5)
    started = time.monotonic()
    status, body = raw_post(base, "Content-Length: 10\r\n", b"{}")
    assert (status, body["error"]) == (408, "RequestTimeout")
    assert time.monotonic() - started < 3.0
    assert path.read_bytes() == before


def test_unfinished_headers_close_the_connection(served_catalog, monkeypatch):
    base, _ = served_catalog
    monkeypatch.setattr(CatalogRequestHandler, "timeout", 0.5)
    host, port = urllib.parse.urlsplit(base).netloc.split(":")
    started = time.monotonic()
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(b"POST /usage HTTP/1.1\r\nHost: x\r\n")  # no blank line
        assert sock.recv(65536) == b""
    assert time.monotonic() - started < 3.0
