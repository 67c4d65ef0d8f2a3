"""One table of reads, ``service.READS``, behind both front ends.

Each case below is run as a CLI command and as a GET request built from the same
``(command, name, pairs)``. A refusal must name the same case in both, with the
status and exit code of its ``ERROR_TABLE`` row; a success must print the row's
``text`` and answer its ``payload`` of one result.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from catalog_fixtures import make_five_event_store, write_tabular_source
from mediacube import analytics
from mediacube.cli import main
from mediacube.errors import ERROR_TABLE
from mediacube.federation import ingest_source
from mediacube.service import READS, make_server
from mediacube.store import CatalogStore

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    """The five-event catalog with a three-book source beside it, so resolve succeeds."""
    tmp = tmp_path_factory.mktemp("reads")
    store = make_five_event_store()
    store.sources.register(write_tabular_source(tmp / "books.tsv", count=3))
    ingest_source(store, "lib")
    store.save(tmp / "catalog.jsonl")
    return tmp / "catalog.jsonl"


@pytest.fixture(scope="module")
def served(catalog):
    server = make_server(CatalogStore.load(catalog), catalog, port=0)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    try:
        yield "http://%s:%d" % server.server_address[:2], server.store
    finally:
        server.shutdown()
        server.server_close()


def get(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


def http_path(command: str, name: str | None, pairs) -> str:
    path = READS[command].path
    if name is not None:
        path += "/" + urllib.parse.quote(name, safe="")
    return path + ("?" + urllib.parse.urlencode(pairs) if pairs else "")


def cli_argv(catalog: Path, command: str, name: str | None, pairs) -> list[str]:
    argv = ["--catalog", str(catalog), command, *([] if name is None else [name])]
    for key, value in pairs:
        if command == "cube" and key != "granularity":
            argv += ["--fix", f"{key}={value}"]
        else:
            argv += [f"--{key}", value]
    return argv


# (command, name, pairs, the case refusing it or None)
CASES = [
    ("record-get", "lib:b001", [], None),
    ("record-get", "fx:d1", [], None),
    ("record-get", "s01:ghost", [], "RecordNotFound"),
    ("record-get", "not=a=code", [], "MalformedCode"),
    ("resolve", "lib:b002", [], None),
    ("resolve", "s99:x", [], "UnknownSource"),
    ("resolve", "lib:nope", [], "NotFoundAtSource"),
    ("contexts", None, [], None),
    ("cube", None, [], None),
    ("cube", None, [("context", "teaching"), ("granularity", "month")], None),
    ("cube", None, [("user", "u9")], "UnknownUser"),
    ("cube", None, [("user", "u1"), ("user", "u2")], "BadRequest"),
    ("cube", None, [("granularity", "week")], "InvalidGranularity"),
    ("report", "importance", [], None),
    ("report", "interest", [("user", "u1")], None),
    ("report", "interest", [], "BadRequest"),
    ("report", "interest", [("user", "")], "BadRequest"),
    ("report", "interest", [("user", "u9")], "UnknownUser"),
    ("report", "evolution", [("granularity", "month")], None),
    ("report", "evolution", [("granularity", "week")], "InvalidGranularity"),
    ("report", "type-ratio", [], None),
    ("report", "social-class", [("user", "u1")], None),
    ("report", "importance", [("granularity", "week")], "InvalidGranularity"),
]


def test_the_cases_cover_every_read_and_report():
    assert {case[0] for case in CASES} == set(READS)
    assert {case[1] for case in CASES if case[0] == "report"} == set(analytics.REPORTS)


@pytest.mark.parametrize("command, name, pairs, case", CASES,
                         ids=[" ".join(filter(None, c[:2])) + f" {c[2]}" for c in CASES])
def test_cli_and_service_answer_a_read_alike(catalog, served, capsys, command, name, pairs,
                                             case):
    base, _ = served
    status, body = get(base, http_path(command, name, pairs))
    code = main(cli_argv(catalog, command, name, pairs))
    out, err = capsys.readouterr()
    if case is not None:
        assert (body["error"], (status, code)) == (case, ERROR_TABLE[case])
        assert (out, err) == ("", f"{case}: {body['message']}\n")
        return
    read = READS[command]
    result = read.run(CatalogStore.load(catalog), name, pairs)
    assert (status, code, err) == (200, 0, "")
    assert out == read.text(result)
    assert body == json.loads(json.dumps(read.payload(result)))
    if command in ("record-get", "resolve"):
        assert json.loads(out) == body
    if command == "resolve":
        assert body["raw_fields"]["title"] == "Title 2"
    if command == "report":
        assert all(type(row[-1]) is int for row in body)
        assert ["\t".join(map(str, row)) for row in body] == out.splitlines()


def test_report_endpoint_body_is_rows_of_fields(served):
    base, _ = served
    assert get(base, "/report/importance") == (200, [["fx:d1", 3], ["fx:d2", 2]])
    assert get(base, "/report/type-ratio") == (200, [["repetitive", 2], ["occasional", 3]])
    assert get(base, "/report/interest?user=u1") == (200, [
        ["context", "teaching", 3], ["document", "fx:d1", 2], ["document", "fx:d2", 1]])
    assert get(base, "/report/evolution?granularity=year") == (200, [["2024", 5]])


@pytest.mark.parametrize("path, status, case", [
    ("/report", 404, "NotFound"),
    ("/report/", 404, "NotFound"),
    ("/report/bogus", 404, "NotFound"),
    ("/report/importance?colour=red", 400, "BadRequest"),
    ("/report/importance?user=u1&user=u1", 400, "BadRequest"),
    ("/report/evolution?granularity=", 400, "InvalidGranularity"),
])
def test_report_endpoint_refusals(served, path, status, case):
    base, _ = served
    reply_status, body = get(base, path)
    assert (reply_status, body["error"]) == (status, case)


def test_report_reads_have_no_side_effects(catalog, served):
    base, store = served
    before, events = catalog.read_bytes(), len(store.snapshot().event_ids)
    for name in analytics.REPORTS:
        for query in ("", "?user=u1", "?user=u9", "?granularity=week", "?colour=red"):
            get(base, f"/report/{name}{query}")
    assert catalog.read_bytes() == before
    assert len(store.snapshot().event_ids) == events


def test_readme_lists_every_read_endpoint():
    readme = README.read_text(encoding="utf-8")
    for read in READS.values():
        suffix = "/{" if read.named else "[?`]"
        assert re.search(rf"^\| `GET {re.escape(read.path)}{suffix}", readme, re.M), read.path
