from __future__ import annotations

import dataclasses
import json
import shutil
import socket
import socketserver
import statistics
import threading
import time
import tracemalloc
from contextlib import contextmanager, suppress
from datetime import date
from pathlib import Path

import pytest

from catalog_fixtures import (
    BOOK_MAPPING,
    IMAGE_MAPPING,
    SOUND_MAPPING,
    LineSourceServer,
    closed_port,
    remote_source,
    sound_records,
    write_file_tree_source,
    write_tabular_source,
)
from mediacube import federation
from mediacube.codes import DocumentCode, MalformedCode, parse_document_code
from mediacube.federation import (
    DuplicateSource,
    FieldMapping,
    FieldTransformError,
    FieldRule,
    InvalidMapping,
    MappedRecordInvalid,
    NotFoundAtSource,
    PresenceRule,
    PresenceUndecidable,
    RequiredFieldMissing,
    SourceDescriptor,
    SourceRecord,
    SourceRegistry,
    SourceUnreachable,
    UnknownSource,
    ingest_source,
    map_to_generic,
    mapping_from_dict,
    mapping_to_dict,
    source_from_dict,
    source_to_dict,
    validate_mapping,
)
from mediacube.store import CatalogStore
from mediacube.taxonomy import MediaClass


def registry_with(*descriptors) -> SourceRegistry:
    registry = SourceRegistry()
    for descriptor in descriptors:
        registry.register(descriptor)
    return registry


# -- registration -------------------------------------------------------------


def test_register_and_get(tmp_path):
    descriptor = write_tabular_source(tmp_path / "books.tsv", source_id="s01")
    registry = SourceRegistry()
    assert registry.register(descriptor) == "s01"
    assert registry.get("s01") is descriptor


def test_register_duplicate_rejected(tmp_path):
    descriptor = write_tabular_source(tmp_path / "books.tsv", source_id="s01")
    registry = registry_with(descriptor)
    with pytest.raises(DuplicateSource):
        registry.register(descriptor)


def test_mapping_with_unknown_target_rejected():
    mapping = FieldMapping(
        presence_rules=(PresenceRule(medium="image", field="colour"),),
        field_rules=(FieldRule(source="hue", target="image.hue"),),
        defaults={"image.dominant_colour": "red", "image.dominant_shape": "oval",
                  "image.image_format": "jpeg", "image.image_medium": "paper",
                  "image.image_type": "sketch"},
    )
    with pytest.raises(InvalidMapping, match="image.hue"):
        validate_mapping(mapping)


def test_mapping_missing_required_coverage_rejected():
    mapping = FieldMapping(
        presence_rules=(PresenceRule(medium="image", field="colour"),),
        field_rules=(FieldRule(source="colour", target="image.dominant_colour"),),
    )
    with pytest.raises(InvalidMapping, match="image."):
        validate_mapping(mapping)


@pytest.mark.parametrize("change", [
    {"defaults": None},
    {"defaults": {"text.author": 5}},
    {"uri_field": 5},
    {"presence_rules": (PresenceRule(medium="text", field="kind", equals=5),)},
    {"presence_rules": (PresenceRule(medium="text", field="kind", equals=""),)},
    {"presence_rules": (PresenceRule(medium="text", field=""),)},
    {"field_rules": (FieldRule(source="", target="text.title"),)},
    {"field_rules": (FieldRule(source="title", target=["text.title"]),)},
], ids=["defaults-none", "default-not-a-string", "uri-field-not-a-string",
        "equals-not-a-string", "equals-empty", "field-empty", "source-empty",
        "target-unhashable"])
def test_register_checks_the_values_of_a_mapping_built_in_python(tmp_path, change):
    descriptor = write_tabular_source(tmp_path / "books.tsv", count=1)
    mapping = dataclasses.replace(descriptor.mapping, **change)
    with pytest.raises(InvalidMapping):
        SourceRegistry().register(dataclasses.replace(descriptor, mapping=mapping))


@pytest.mark.parametrize("change", [
    {"presence_rules": ({"medium": "text", "field": "kind"},)},
    {"field_rules": None},
    {"mapping": None},
], ids=["presence-rule-a-dict", "field-rules-none", "mapping-none"])
def test_register_refuses_a_mapping_of_the_wrong_shape(tmp_path, change):
    descriptor = write_tabular_source(tmp_path / "books.tsv", count=1)
    if "mapping" not in change:
        change = {"mapping": dataclasses.replace(descriptor.mapping, **change)}
    with pytest.raises(InvalidMapping, match="must be a"):
        SourceRegistry().register(dataclasses.replace(descriptor, **change))


def test_register_refuses_a_source_id_that_is_not_a_string(tmp_path):
    descriptor = write_tabular_source(tmp_path / "books.tsv", count=1)
    with pytest.raises(MalformedCode, match="source_id 5 must match"):
        SourceRegistry().register(dataclasses.replace(descriptor, source_id=5))


def test_mapping_transform_kind_mismatch_rejected():
    mapping = FieldMapping(
        presence_rules=(PresenceRule(medium="text", field="title"),),
        field_rules=(FieldRule(source="title", target="text.title", transform="split-list"),),
    )
    with pytest.raises(InvalidMapping):
        validate_mapping(mapping)


# -- harvesting ---------------------------------------------------------------


def test_file_tree_harvest_sorted(tmp_path):
    descriptor = write_file_tree_source(tmp_path / "imgs", count=3)
    result = registry_with(descriptor).harvest("gallery")
    assert [r.local_id for r in result.records] == ["i001", "i002", "i003"]
    assert result.problems == ()


def test_tabular_harvest_with_one_corrupt_row(tmp_path):
    descriptor = write_tabular_source(tmp_path / "books.tsv", count=50, corrupt_line=True)
    result = registry_with(descriptor).harvest("lib")
    assert len(result.records) == 50
    assert len(result.problems) == 1
    assert result.problems[0].locator.startswith("line ")


def test_harvest_deterministic(tmp_path):
    descriptor = write_tabular_source(tmp_path / "books.tsv", count=20)
    registry = registry_with(descriptor)
    assert registry.harvest("lib") == registry.harvest("lib")


def test_remote_harvest():
    records = sound_records(count=5)
    with LineSourceServer(records) as server:
        descriptor = remote_source(server.endpoint)
        result = registry_with(descriptor).harvest("radio")
    assert [r.local_id for r in result.records] == sorted(records)
    assert result.records[0].raw_fields == records["s001"]


def test_remote_refused_connection():
    descriptor = remote_source(f"127.0.0.1:{closed_port()}")
    with pytest.raises(SourceUnreachable):
        registry_with(descriptor).harvest("radio")


def test_harvest_unknown_source():
    with pytest.raises(UnknownSource):
        SourceRegistry().harvest("nope")


def test_distinct_sources_harvest_concurrently(tmp_path):
    import threading

    registry = registry_with(
        write_tabular_source(tmp_path / "books.tsv", source_id="lib", count=30),
        write_file_tree_source(tmp_path / "imgs", source_id="gallery", count=30),
    )
    results: dict[str, object] = {}

    def harvest(source_id):
        results[source_id] = registry.harvest(source_id)

    threads = [threading.Thread(target=harvest, args=(sid,))
               for sid in ("lib", "gallery")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results["lib"].records) == 30
    assert len(results["gallery"].records) == 30
    assert results["lib"] == registry.harvest("lib")


def test_harvest_disabled_source(tmp_path):
    descriptor = write_tabular_source(tmp_path / "books.tsv")
    descriptor = dataclasses.replace(descriptor, enabled=False)
    registry = registry_with(descriptor)
    from mediacube.federation import SourceDisabled
    with pytest.raises(SourceDisabled):
        registry.harvest("lib")


# -- mapping to generic records ------------------------------------------------


def test_map_book_row_to_text_record():
    raw = SourceRecord("s01", "b1", {"kind": "book", "title": "X", "author": "Y"})
    mapping = FieldMapping(
        presence_rules=(PresenceRule(medium="text", field="kind", equals="book"),),
        field_rules=(
            FieldRule(source="title", target="text.title"),
            FieldRule(source="author", target="text.author"),
        ),
    )
    record = map_to_generic(raw, mapping)
    assert str(record.document_code) == "s01:b1"
    assert record.media_class is MediaClass.TEXT
    assert record.text.title == "X"
    assert record.text.author == "Y"


def test_map_without_medium_evidence():
    raw = SourceRecord("s01", "b1", {"title": "X"})
    with pytest.raises(PresenceUndecidable):
        map_to_generic(raw, BOOK_MAPPING)


def test_map_missing_required_image_field():
    raw = SourceRecord("g", "i1", {"shape": "oval", "format": "jpeg",
                                   "medium": "paper", "type": "sketch",
                                   "colour": ""})
    mapping = dataclasses.replace(
        IMAGE_MAPPING,
        presence_rules=(PresenceRule(medium="image", field="shape"),),
    )
    with pytest.raises(RequiredFieldMissing, match="image.dominant_colour"):
        map_to_generic(raw, mapping)


def test_map_applies_transforms_and_defaults():
    raw = SourceRecord("radio", "s1", {
        "artist": "A", "stype": "MUSIC", "when": "2022-03-04", "tags": "one, two"})
    record = map_to_generic(raw, mapping_from_dict(mapping_to_dict(SOUND_MAPPING)))
    assert record.sound.sound_type == "music"
    assert record.sound.publication_date == date(2022, 3, 4)
    assert record.sound.descriptors == ("one", "two")
    assert record.sound.target == "public"


def test_map_closed_vocabulary_violation_surfaces():
    raw = SourceRecord("g", "i1", {"colour": "MAUVE", "shape": "oval",
                                   "format": "jpeg", "medium": "paper",
                                   "type": "sketch"})
    with pytest.raises(MappedRecordInvalid, match="dominant_colour"):
        map_to_generic(raw, IMAGE_MAPPING)


def test_map_is_idempotent():
    raw = SourceRecord("s01", "b1", {"kind": "book", "title": "X",
                                     "published": "2020-01-02",
                                     "keywords": "a, b", "related": ""})
    assert map_to_generic(raw, BOOK_MAPPING) == map_to_generic(raw, BOOK_MAPPING)


def test_map_uri_field_takes_over():
    raw = SourceRecord("s01", "b1", {"kind": "book", "title": "X",
                                     "url": "https://example.org/d/7"})
    mapping = dataclasses.replace(BOOK_MAPPING, uri_field="url")
    record = map_to_generic(raw, mapping)
    assert record.document_code.is_uri
    assert str(record.document_code) == "https://example.org/d/7"


# -- resolve -------------------------------------------------------------------


def test_resolve_round_trip(tmp_path):
    descriptor = write_tabular_source(tmp_path / "books.tsv", source_id="s01", count=5)
    registry = registry_with(descriptor)
    harvested = {r.local_id: r for r in registry.harvest("s01").records}
    resolved = registry.resolve(parse_document_code("s01:b003"))
    assert resolved == harvested["b003"]


def test_resolve_missing_record(tmp_path):
    descriptor = write_tabular_source(tmp_path / "books.tsv", source_id="s01", count=5)
    with pytest.raises(NotFoundAtSource):
        registry_with(descriptor).resolve(parse_document_code("s01:ghost"))


def test_resolve_unknown_source():
    with pytest.raises(UnknownSource):
        SourceRegistry().resolve(parse_document_code("s99:b1"))


def test_resolve_uri_code_defers_fetch():
    record = SourceRegistry().resolve(parse_document_code("https://example.org/d/7"))
    assert record.raw_fields == {"uri": "https://example.org/d/7"}


def test_resolve_remote_record():
    records = sound_records(count=3)
    with LineSourceServer(records) as server:
        registry = registry_with(remote_source(server.endpoint))
        resolved = registry.resolve(parse_document_code("radio:s002"))
        assert resolved.raw_fields == records["s002"]
        with pytest.raises(NotFoundAtSource):
            registry.resolve(parse_document_code("radio:zzz"))


# -- ingest --------------------------------------------------------------------


def test_ingest_collects_problems_without_aborting(tmp_path):
    store = CatalogStore()
    store.sources.register(
        write_tabular_source(tmp_path / "books.tsv", count=10, corrupt_line=True))
    report = ingest_source(store, "lib")
    assert len(report.ingested) == 10
    assert len(report.problems) == 1
    for code in report.ingested:
        assert store.get_record(code) is not None


def test_ingest_round_trip_reproduces_descriptors(tmp_path):
    store = CatalogStore()
    descriptor = write_file_tree_source(tmp_path / "imgs", count=8)
    store.sources.register(descriptor)
    report = ingest_source(store, "gallery")
    assert len(report.ingested) == 8
    for code_text in report.ingested:
        code = parse_document_code(code_text)
        raw = store.sources.resolve(code)
        assert map_to_generic(raw, descriptor.mapping) == store.get_record(code)


# -- serialization ---------------------------------------------------------------


def test_mapping_dict_round_trip():
    data = mapping_to_dict(BOOK_MAPPING)
    assert mapping_from_dict(data) == BOOK_MAPPING


def test_source_dict_round_trip(tmp_path):
    descriptor = write_tabular_source(tmp_path / "books.tsv")
    data = source_to_dict(descriptor)
    assert data["adapter"] == "tabular"
    assert source_from_dict(data) == descriptor


def test_readme_mapping_example_registers_and_maps_a_row():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Source kinds and mappings\n", 1)[1]
    mapping = mapping_from_dict(json.loads(section.split("```json\n", 1)[1].split("```", 1)[0]))
    registry_with(SourceDescriptor(source_id="lib", kind="tabular", location="books.tsv",
                                   mapping=mapping))
    raw = SourceRecord("lib", "b1", {"kind": "book", "title": "Tides", "published": "2001/2/3",
                                     "keywords": "sea, moon"})
    record = map_to_generic(raw, mapping)
    assert (record.text.title, record.text.reference_date) == ("Tides", date(2001, 2, 3))
    assert record.text.descriptors == ("sea", "moon") and record.sound is None


def test_source_descriptor_bad_kind_rejected(tmp_path):
    descriptor = SourceDescriptor(source_id="x", kind="carrier-pigeon",
                                  location="nowhere", mapping=BOOK_MAPPING)
    with pytest.raises(InvalidMapping):
        SourceRegistry().register(descriptor)


# -- windowed remote-line harvest ------------------------------------------------


class _ScriptedLineHandler(socketserver.StreamRequestHandler):
    """LIST names every scripted id; GET answers the scripted reply, in one write."""

    def handle(self):
        replies = self.server.replies
        for raw in self.rfile:
            command = raw.decode("utf-8").rstrip("\n")
            if command == "LIST":
                reply = "".join(f"{local_id}\n" for local_id in replies) + "\n"
            else:
                reply = replies.get(command.removeprefix("GET "), "ERR unknown command\n")
            self.wfile.write(reply.encode("utf-8"))


class _BytesLineHandler(socketserver.StreamRequestHandler):
    """Answers each command, LIST included, with its scripted bytes, in one write."""

    def handle(self):
        for raw in self.rfile:
            self.wfile.write(self.server.replies.get(raw.rstrip(b"\n"), b"ERR unknown command\n"))


@contextmanager
def scripted_line_server(replies: dict, handler=_ScriptedLineHandler):
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    server.replies = replies
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.02),
                              daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


def test_remote_harvest_larger_than_the_window():
    records = sound_records(count=2 * federation.GET_WINDOW + 7)
    with LineSourceServer(records) as server:
        result = registry_with(remote_source(server.endpoint)).harvest("radio")
    assert [r.local_id for r in result.records] == sorted(records)
    assert all(r.raw_fields == records[r.local_id] for r in result.records)
    assert result.problems == ()


def test_windowed_harvest_matches_lockstep_on_err_and_malformed(monkeypatch):
    replies = {f"s{i:03d}": f"artist\tA{i}\nstype\tMUSIC\n\n"
               for i in range(federation.GET_WINDOW + 20)}
    replies["s003"] = "ERR gone\n"
    replies["s010"] = "artist\tA\nno separator here\n\n"
    replies["s050"] = "ERR also gone\n"
    replies["s070"] = "\n"  # an empty reply: a record with no fields
    replies["s071"] = "ERR last\n"
    with scripted_line_server(replies) as endpoint:
        registry = registry_with(remote_source(endpoint))
        windowed = registry.harvest("radio")
        monkeypatch.setattr(federation, "GET_WINDOW", 1)  # one GET per round trip
        lockstep = registry.harvest("radio")
    assert windowed == lockstep
    assert [(p.locator, p.case) for p in windowed.problems] == [
        ("s003", "NotFoundAtSource"), ("s010", "MalformedSourceRecord"),
        ("s050", "NotFoundAtSource"), ("s071", "NotFoundAtSource")]
    assert len(windowed.records) == len(replies) - 4
    by_id = {r.local_id: r.raw_fields for r in windowed.records}
    assert by_id["s070"] == {} and by_id["s069"] == {"artist": "A69", "stype": "MUSIC"}


@pytest.mark.parametrize("bad, locator, case", [
    ({b"GET a2": b"title\tT\xffwo\n\n"}, "a2", "MalformedSourceRecord"),
    ({b"GET a2": b"ERR gone \xff\n"}, "a2", "NotFoundAtSource"),
    ({b"LIST": b"a1\nb\xff2\na3\n\n"}, "LIST line 2", "MalformedSourceRecord"),
], ids=["get-reply", "err-reply", "list-reply"])
def test_remote_line_reply_line_not_utf8_is_one_problem(bad, locator, case):
    replies = {b"LIST": b"a1\na2\na3\n\n", b"GET a1": b"title\tOne\n\n",
               b"GET a2": b"title\tTwo\n\n", b"GET a3": b"title\tThree\n\n", **bad}
    with scripted_line_server(replies, _BytesLineHandler) as endpoint:
        started = time.monotonic()
        result = registry_with(remote_source(endpoint)).harvest("radio")
        elapsed = time.monotonic() - started
    assert [(p.locator, p.case) for p in result.problems] == [(locator, case)]
    assert {r.local_id: r.raw_fields["title"] for r in result.records} == {
        "a1": "One", "a3": "Three"}
    assert elapsed < 2.0, f"harvest took {elapsed:.2f} s"


def test_linewise_remote_harvest_does_not_stall_per_record():
    # The fixture endpoint writes each reply line separately; one GET per
    # round trip waits on a delayed ACK for every record.
    records = sound_records(count=100)
    with LineSourceServer(records) as server:
        registry = registry_with(remote_source(server.endpoint))
        started = time.monotonic()
        result = registry.harvest("radio")
        elapsed = time.monotonic() - started
    assert len(result.records) == 100
    assert elapsed < 1.5, f"harvest of 100 records took {elapsed:.2f} s"


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="TCP_QUICKACK is Linux only")
def test_pipelined_remote_harvest_does_not_wait_on_a_delayed_ack():
    # Once the client has sent its last GET, the endpoint's final reply waits
    # for the client's ACK; a delayed ACK costs about 40 ms per harvest.
    with LineSourceServer(sound_records(count=40)) as server:
        registry = registry_with(remote_source(server.endpoint))
        elapsed = []
        for _ in range(5):
            started = time.perf_counter()
            result = registry.harvest("radio")
            elapsed.append(time.perf_counter() - started)
    assert len(result.records) == 40
    assert statistics.median(elapsed) < 0.020, f"harvests took {elapsed}"


# -- bounded remote-line replies --------------------------------------------------


@contextmanager
def streaming_endpoint(chunk: bytes, most: int):
    """An endpoint for one connection that answers its first request with ``chunk``
    over and over, until the client hangs up or ``most`` bytes are sent."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)

    def stream():
        with suppress(OSError), listener.accept()[0] as conn:
            conn.settimeout(5.0)
            conn.recv(64)
            for _ in range(most // len(chunk)):
                conn.sendall(chunk)

    thread = threading.Thread(target=stream, daemon=True)
    thread.start()
    host, port = listener.getsockname()[:2]
    try:
        yield f"{host}:{port}"
    finally:
        thread.join(timeout=5.0)
        listener.close()


@pytest.mark.parametrize("chunk, bound, breach", [
    # One endless line: the capped line and its copy while ``readline`` joins it,
    # with room for the imports a first connection makes.
    (b"x" * 4096, 8 * federation.REMOTE_LINE_BYTES,
     f"a reply line is over {federation.REMOTE_LINE_BYTES} bytes"),
    # Endless short lines with no blank terminator: at most the capped count
    # of two-byte lines, each a bytes object and a list slot under 64 bytes.
    (b"ab\n" * 1024, 64 * federation.REMOTE_REPLY_LINES,
     f"a reply is over {federation.REMOTE_REPLY_LINES} lines"),
], ids=["endless-line", "endless-short-lines"])
def test_an_endless_remote_reply_is_unreachable_within_a_memory_bound(chunk, bound, breach):
    # The endpoint stops at four times the bound, so a reader without the cap
    # fails the memory bound here rather than growing without end.
    with streaming_endpoint(chunk, most=4 * bound) as endpoint:
        registry = registry_with(remote_source(endpoint))
        tracemalloc.start()
        try:
            with pytest.raises(SourceUnreachable, match=breach):
                registry.harvest("radio")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < bound, f"peak {peak} bytes"


def test_a_remote_harvest_past_its_byte_cap_is_unreachable(monkeypatch):
    replies = {f"s{i:02d}": "artist\tA\nstype\tMUSIC\n\n" for i in range(20)}
    with scripted_line_server(replies) as endpoint:
        registry = registry_with(remote_source(endpoint))
        assert len(registry.harvest("radio").records) == 20
        monkeypatch.setattr(federation, "REMOTE_HARVEST_BYTES", 200)
        with pytest.raises(SourceUnreachable, match="replies are over 200 bytes"):
            registry.harvest("radio")


# -- single-scan tabular resolve ---------------------------------------------------

_HEADER = "local_id\tkind\ttitle\n"


def tabular_source(path, body: str, newline: str = "\n") -> SourceRegistry:
    path.write_bytes((_HEADER + body).replace("\n", newline).encode("utf-8"))
    mapping = FieldMapping(
        presence_rules=(PresenceRule(medium="text", field="kind", equals="book"),),
        field_rules=(FieldRule(source="title", target="text.title"),))
    return registry_with(SourceDescriptor(source_id="s01", kind="tabular",
                                          location=str(path), mapping=mapping))


def resolved_and_harvested(registry: SourceRegistry, local_id: str):
    harvested = {r.local_id: r for r in registry.harvest("s01").records}
    return registry.resolve(parse_document_code(f"s01:{local_id}")), harvested[local_id]


def test_tabular_resolve_duplicate_id_first_row_wins(tmp_path):
    registry = tabular_source(tmp_path / "t.tsv",
                              "b1\tbook\tFirst\nb2\tbook\tOther\nb1\tbook\tSecond\n")
    resolved, harvested = resolved_and_harvested(registry, "b1")
    assert resolved == harvested
    assert resolved.raw_fields["title"] == "First"


def test_tabular_resolve_skips_a_malformed_row_before_the_good_one(tmp_path):
    registry = tabular_source(tmp_path / "t.tsv",
                              "b1\tbook\n\tbook\tNo id\n\nb1\tbook\tGood\n")
    resolved, harvested = resolved_and_harvested(registry, "b1")
    assert resolved == harvested
    assert resolved.raw_fields == {"local_id": "b1", "kind": "book", "title": "Good"}


def test_tabular_resolve_reads_crlf_input_as_harvest_does(tmp_path):
    body = "b1\tbook\tOne\nb2\tbook\tTwo\n"
    crlf = tabular_source(tmp_path / "crlf.tsv", body, newline="\r\n")
    lf = tabular_source(tmp_path / "lf.tsv", body)
    resolved, harvested = resolved_and_harvested(crlf, "b2")
    assert resolved == harvested
    assert resolved == lf.resolve(parse_document_code("s01:b2"))
    assert resolved.raw_fields["title"] == "Two"


def test_tabular_resolve_missing_id_and_missing_file(tmp_path):
    registry = tabular_source(tmp_path / "t.tsv", "b1\tbook\tOne\n")
    with pytest.raises(NotFoundAtSource):
        registry.resolve(parse_document_code("s01:ghost"))
    (tmp_path / "t.tsv").unlink()
    with pytest.raises(SourceUnreachable):
        registry.resolve(parse_document_code("s01:b1"))


def test_tabular_header_not_utf8_fails_the_source(tmp_path):
    path = tmp_path / "t.tsv"
    registry = tabular_source(path, "b1\tbook\tOne\n")
    path.write_bytes(b"\xff" + path.read_bytes())
    with pytest.raises(SourceUnreachable, match="not UTF-8"):
        registry.harvest("s01")


def test_tabular_resolve_stops_at_the_matching_row(tmp_path):
    # Bytes that are not UTF-8, far past the match: a scan that read on
    # to the end of the file would fail on them.
    path = tmp_path / "t.tsv"
    registry = tabular_source(path, "b1\tbook\tOne\n" + "bx\tbook\tPad\n" * 20_000)
    with path.open("ab") as handle:
        handle.write(b"b9\tbook\t\xff\n")
    assert registry.resolve(parse_document_code("s01:b1")).raw_fields["title"] == "One"


# -- one reader per kind: resolve reads a source as its harvest does -------------


@contextmanager
def source_of_kind(kind: str, tmp_path):
    """Yield a registry holding one source of ``kind``, and a call that removes its location."""
    if kind == "remote-line":
        with LineSourceServer(sound_records(count=5)) as server:
            yield registry_with(remote_source(server.endpoint)), server.close
    elif kind == "tabular":
        descriptor = write_tabular_source(tmp_path / "books.tsv", count=5, corrupt_line=True)
        yield registry_with(descriptor), (tmp_path / "books.tsv").unlink
    elif kind == "file-tree":
        descriptor = write_file_tree_source(tmp_path / "imgs", count=5)
        yield registry_with(descriptor), lambda: shutil.rmtree(tmp_path / "imgs")
    else:
        raise AssertionError(f"no test source for adapter kind {kind!r}")


@pytest.mark.parametrize("kind", federation.ADAPTER_KINDS)
def test_resolve_reads_every_kind_as_its_harvest_does(tmp_path, kind):
    with source_of_kind(kind, tmp_path) as (registry, remove_location):
        (descriptor,) = registry.list()
        source_id = descriptor.source_id
        harvested = registry.harvest(source_id).records
        assert len(harvested) == 5
        for raw in harvested:
            assert registry.resolve(DocumentCode.compound(source_id, raw.local_id)) == raw
        with pytest.raises(NotFoundAtSource) as missing:
            registry.resolve(DocumentCode.compound(source_id, "ghost"))
        assert str(missing.value) == f"{source_id}:ghost"
        remove_location()
        with pytest.raises(SourceUnreachable):
            registry.resolve(DocumentCode.compound(source_id, harvested[0].local_id))
        with pytest.raises(SourceUnreachable):
            registry.harvest(source_id)


@pytest.mark.parametrize("escape", ["relative", "absolute"])
def test_file_tree_resolve_stays_in_its_directory(tmp_path, escape):
    registry = registry_with(write_file_tree_source(tmp_path / "imgs", count=2))
    (tmp_path / "outside.meta").write_text("colour\tRED\n", encoding="utf-8")
    local_id = "../outside" if escape == "relative" else str(tmp_path / "outside")
    with pytest.raises(NotFoundAtSource) as refused:
        registry.resolve(DocumentCode.compound("gallery", local_id))
    assert str(refused.value) == f"gallery:{local_id}"


def test_remote_line_resolve_of_an_id_holding_a_newline_is_not_found():
    with LineSourceServer(sound_records(count=3)) as server:
        registry = registry_with(remote_source(server.endpoint))
        with pytest.raises(NotFoundAtSource):
            registry.resolve(DocumentCode.compound("radio", "s001\nGET s002"))


# -- date-parse is what any date field gets ---------------------------------------


def _mapped_reference_date(transform: str, when: str):
    mapping = FieldMapping(
        presence_rules=(PresenceRule(medium="text", field="title"),),
        field_rules=(FieldRule(source="title", target="text.title"),
                     FieldRule(source="when", target="text.reference_date",
                               transform=transform)))
    return map_to_generic(SourceRecord("s01", "b1", {"title": "X", "when": when}), mapping)


def test_date_parse_rule_equals_identity_rule_on_a_date_field():
    for when in ("2020-01-02", "2020/1/2"):
        record = _mapped_reference_date("identity", when)
        assert record == _mapped_reference_date("date-parse", when)
        assert record.text.reference_date == date(2020, 1, 2)
    messages = set()
    for transform in ("date-parse", "identity"):
        with pytest.raises(FieldTransformError) as failed:
            _mapped_reference_date(transform, "2020-13-45")
        messages.add(str(failed.value))
    assert messages == {"text.reference_date: unparseable date: '2020-13-45'"}
