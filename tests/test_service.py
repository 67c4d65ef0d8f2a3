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

from catalog_fixtures import make_five_event_store, write_file_tree_source, write_tabular_source
from mediacube.cli import main
from mediacube.errors import ERROR_TABLE
from mediacube.codes import parse_document_code
from mediacube.federation import ingest_source, source_record_to_dict
from mediacube.service import (
    MAX_BODY_BYTES,
    REQUEST_TIMEOUT_S,
    CatalogRequestHandler,
    CatalogServer,
    make_server,
)
from mediacube.store import CatalogStore, CorruptCatalog


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


def raw_request(base: str, data: bytes):
    """Send ``data`` as it is; return (status, Content-Type, JSON body) or fail on a hang."""
    host, port = urllib.parse.urlsplit(base).netloc.split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(data)
        reply = b""
        while chunk := sock.recv(65536):  # the server closes after one reply
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1."), reply
    headers = dict(line.split(": ", 1) for line in head.decode("latin-1").split("\r\n")[1:])
    return int(head.split()[1]), headers["Content-Type"], json.loads(payload)


def raw_post(base: str, headers: str, body: bytes = b""):
    """Send a hand-written POST /usage; return (status, JSON body)."""
    host = urllib.parse.urlsplit(base).hostname
    request = f"POST /usage HTTP/1.1\r\nHost: {host}\r\n{headers}\r\n".encode() + body
    status, _, payload = raw_request(base, request)
    return status, payload


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


def test_cli_and_service_resolve_a_code_to_its_source_record(tmp_path, capsys):
    catalog = tmp_path / "catalog.jsonl"
    store = CatalogStore()
    store.sources.register(write_tabular_source(tmp_path / "books.tsv", count=3))
    ingest_source(store, "lib")
    store.save(catalog)
    expected = source_record_to_dict(store.sources.resolve(parse_document_code("lib:b002")))
    assert expected["raw_fields"]["title"] == "Title 2"
    code = main(["--catalog", str(catalog), "resolve", "lib:b002"])
    assert (code, json.loads(capsys.readouterr().out)) == (0, expected)
    with serving(CatalogStore.load(catalog), catalog) as base:
        assert get(base, "/resolve/lib:b002") == (200, expected)


@pytest.mark.parametrize("escape", ["relative", "absolute"])
def test_resolve_of_a_file_tree_id_outside_its_directory_is_not_found(tmp_path, escape):
    store = CatalogStore()
    store.sources.register(write_file_tree_source(tmp_path / "imgs", count=2))
    (tmp_path / "outside.meta").write_text("colour\tRED\n", encoding="utf-8")
    local_id = "../outside" if escape == "relative" else str(tmp_path / "outside")
    with serving(store, tmp_path / "catalog.jsonl") as base:
        status, body = get(base, "/resolve/gallery:" + urllib.parse.quote(local_id, safe=""))
    assert (status, body["error"]) == (404, "NotFoundAtSource")


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
    ("time=2024-W01-1", "BadRequest"),
    ("time=20240101", "BadRequest"),
    ("time=2024-01-01/2024-01-02", "BadRequest"),
    ("time=2024-01-01T00:00:00+00:00/2024-01-02T00:00:00Z", "BadRequest"),
    ("time=2024-01-0\u0661", "BadRequest"),  # ARABIC-INDIC DIGIT ONE
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


@pytest.mark.parametrize("query, argv, case", [
    ("user=u1&user=u2", ["--fix", "user=u1", "--fix", "user=u2"], "BadRequest"),
    ("granularity=week", ["--granularity", "week"], "InvalidGranularity"),
], ids=["repeated-name", "unknown-granularity"])
def test_cli_and_service_refuse_a_cube_request_alike(served_catalog, capsys, query, argv, case):
    base, path = served_catalog
    status, body = get(base, f"/cube?{query}")
    code = main(["--catalog", str(path), "cube", *argv])
    err = capsys.readouterr().err
    assert (body["error"], (status, code)) == (case, ERROR_TABLE[case])
    assert err == f"{case}: {body['message']}\n"


@pytest.mark.parametrize("timestamp", [
    "2024-02-01", "2024-02-01T09:00:00+05:00", "2024-02-01T09:00:00.75Z",
    "2024-02-01 09:00:00Z", "2024-02-01T09:00Z",
], ids=["date-only", "offset", "fraction", "space", "no-seconds"])
def test_cli_and_service_refuse_a_timestamp_outside_the_grammar(served_catalog, capsys,
                                                                timestamp):
    base, path = served_catalog
    before = path.read_bytes()
    status, body = post(base, "/usage", {**USAGE, "context": "teaching", "timestamp": timestamp})
    code = main(["--catalog", str(path), "usage-log", "--doc", "fx:d1", "--context", "teaching",
                 "--user", "u1", "--type", "occasional", "--time", timestamp])
    err = capsys.readouterr().err
    assert (status, body["error"], code) == (400, "BadRequest", 2)
    assert err == f"BadRequest: {body['message']}\n"
    assert path.read_bytes() == before


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


# JSON from outside that ``json.loads`` fails on in three ways: nesting past the
# recursion limit, an integer past the digit limit, and bytes that are not UTF-8.
REFUSED_JSON = {
    "deep-nesting": b"[" * 5000,
    "long-integer": b'{"kind":"event","event_id":' + b"9" * 5000 + b"}",
    "not-utf8": b'{"kind":"\xe9"}',
    "nan": json.dumps({**USAGE, "note": float("nan")}).encode(),
    # A number past the float range, which a plain parse reads as infinity.
    "float-overflow": json.dumps(USAGE).encode()[:-1] + b',"note":1.5e400}',
    # Valid JSON, but the escape names half a surrogate pair, which no UTF-8 text holds.
    "lone-surrogate": json.dumps({**USAGE, "context": "\ud800"}).encode(),
}


@pytest.mark.parametrize("raw", REFUSED_JSON.values(), ids=REFUSED_JSON.keys())
def test_every_reader_of_outside_json_refuses_it(five_event_catalog, tmp_path, capsys,
                                                 monkeypatch, raw):
    faults = []
    monkeypatch.setattr(CatalogServer, "handle_error", lambda self, *args: faults.append(args))
    with serving(CatalogStore.load(five_event_catalog), five_event_catalog) as base:
        status, body = raw_post(base, f"Content-Length: {len(raw)}\r\n", raw)
    assert (status, body["error"], faults) == (400, "BadRequest", [])

    mapping = tmp_path / "mapping.json"
    mapping.write_bytes(raw)
    code = main(["--catalog", str(tmp_path / "new.jsonl"), "source-register",
                 "--source-id", "lib", "--kind", "tabular", "--location", "books.tsv",
                 "--mapping", str(mapping)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("BadRequest: ") and err.count("\n") == 1

    five_event_catalog.write_bytes(five_event_catalog.read_bytes() + raw + b"\n")
    line = five_event_catalog.read_bytes().count(b"\n")
    with pytest.raises(CorruptCatalog, match=f"^line {line}: ") as refused:
        CatalogStore.load(five_event_catalog)
    assert refused.value.line_number == line


@pytest.mark.parametrize("method, path", [
    ("GET", "/nope"), ("GET", "/records"), ("GET", "/records/"), ("GET", "/resolve"),
    ("GET", "/report"), ("GET", "/report/bogus"), ("GET", "/contexts/teaching"),
    ("GET", "/cube/"), ("POST", "/records/fx:d1"), ("POST", "/nope"),
])
def test_not_found_goes_through_the_error_table(served_catalog, method, path):
    base, catalog = served_catalog
    before = catalog.read_bytes()
    request = urllib.request.Request(base + path, method=method,
                                     data=b"{}" if method == "POST" else None)
    with pytest.raises(urllib.error.HTTPError) as refused:
        urllib.request.urlopen(request)
    body = json.loads(refused.value.read())
    refused.value.close()
    assert (refused.value.code, body["error"]) == (ERROR_TABLE["NotFound"][0], "NotFound")
    assert catalog.read_bytes() == before


@pytest.mark.parametrize("request_bytes, status, case", [
    (b"PUT /usage HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n", 501, "NotImplemented"),
    (b"DELETE /records/fx:d1 HTTP/1.1\r\nHost: x\r\n\r\n", 501, "NotImplemented"),
    (b"GARBAGE\r\n\r\n", 400, "BadRequest"),
    (b"GET /cube HTTP/x.y\r\n\r\n", 400, "BadRequest"),
    # Exactly one byte over the 64 KiB line cap, so the server reads all that is sent.
    (b"GET /" + b"a" * (65537 - 5), 414, "Request-URITooLong"),
    (b"GET /cube HTTP/1.1\r\nX: " + b"a" * (65537 - 3), 431, "RequestHeaderFieldsTooLarge"),
], ids=["put", "delete", "garbage-line", "bad-version", "long-line", "long-header"])
def test_the_stdlib_refusals_answer_json(served_catalog, request_bytes, status, case):
    base, catalog = served_catalog
    before = catalog.read_bytes()
    reply = raw_request(base, request_bytes)
    assert reply[:2] == (status, "application/json; charset=utf-8")
    assert reply[2]["error"] == case and reply[2]["message"]
    assert catalog.read_bytes() == before



def test_a_refused_head_has_no_body(served_catalog):
    base, _ = served_catalog
    host, port = urllib.parse.urlsplit(base).netloc.split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(b"HEAD /cube HTTP/1.1\r\nHost: x\r\n\r\n")
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 501 ") and b"application/json" in head
    assert body == b""
