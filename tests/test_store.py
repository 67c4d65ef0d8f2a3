from __future__ import annotations

import dataclasses
import json
import sys
import threading
import tracemalloc
from datetime import datetime, timedelta, timezone
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mediacube.store
from catalog_fixtures import make_five_event_store, write_tabular_source
from catalog_fixtures import count_record_builds
from mediacube.codes import DocumentCode, parse_document_code
from mediacube.descriptors import GenericRecord, SoundDescriptor, TextDescriptor
from mediacube.descriptors import BUILTIN_VOCABULARIES, MEDIA, MEDIUM_FIELDS, ImageDescriptor
from mediacube.descriptors import check_record_dict
from mediacube.descriptors import record_from_dict, record_to_dict
from mediacube.store import (
    CatalogStore,
    CorruptCatalog,
    MalformedEvent,
    MalformedProfile,
    RecordInvalid,
    RecordNotFound,
    StorageIO,
    UnknownDocument,
    UnknownUser,
    UsageEvent,
    UserProfile,
    _dump_line,
    parse_timestamp,
)
from mediacube.taxonomy import MediaClass


def _utc(text: str) -> datetime:
    return datetime.fromisoformat(text).replace(tzinfo=timezone.utc)


def text_record(local="d1", title="T"):
    return GenericRecord(
        document_code=DocumentCode.compound("fx", local),
        media_class=MediaClass.TEXT,
        text=TextDescriptor(title=title),
    )


def event(local="d1", context="teaching", user="u1", when="2024-01-01T09:00:00",
          use_type="occasional"):
    return UsageEvent(
        document_code=DocumentCode.compound("fx", local),
        context=context,
        user_id=user,
        timestamp=_utc(when),
        use_type=use_type,
    )


# -- records -------------------------------------------------------------------


def test_put_then_get_round_trip():
    store = CatalogStore()
    record = GenericRecord(
        document_code=DocumentCode.compound("fx", "full"),
        media_class=MediaClass.TEXT_SOUND,
        text=TextDescriptor(title="T"),
        sound=SoundDescriptor(originator="o", sound_type="voice"),
    )
    store.put_record(record)
    assert store.get_record("fx:full") == record


def test_get_missing_record():
    with pytest.raises(RecordNotFound):
        CatalogStore().get_record(parse_document_code("s01:ghost"))


def test_put_invalid_record_rejected():
    bad = dataclasses.replace(text_record(), media_class=MediaClass.TEXT_IMAGE)
    with pytest.raises(RecordInvalid):
        CatalogStore().put_record(bad)


def test_put_replaces_existing_record():
    store = CatalogStore()
    store.put_record(text_record(title="old"))
    store.put_record(text_record(title="new"))
    assert store.get_record("fx:d1").text.title == "new"
    assert len(store.snapshot().records) == 1


def test_put_accepts_dangling_related_reference():
    # Unknown related documents warn but never block the put.
    store = CatalogStore()
    record = GenericRecord(
        document_code=DocumentCode.compound("fx", "d1"),
        media_class=MediaClass.TEXT,
        text=TextDescriptor(title="T", related_documents=(
            DocumentCode.compound("fx", "elsewhere"),)),
    )
    store.put_record(record)
    assert store.get_record("fx:d1") == record


def test_save_to_unwritable_path_raises_storage_error(tmp_path):
    store = CatalogStore()
    with pytest.raises(StorageIO):
        store.save(tmp_path / "missing-dir" / "catalog.jsonl")


# -- users ----------------------------------------------------------------------


def test_register_user_round_trip_and_upsert():
    store = CatalogStore()
    store.register_user(UserProfile(user_id="u1", name="Ada"))
    assert store.get_user("u1").name == "Ada"
    store.register_user(UserProfile(user_id="u1", name="Ada", address="new road"))
    assert store.get_user("u1").address == "new road"
    assert len(store.snapshot().users) == 1


def test_register_user_empty_id_rejected():
    with pytest.raises(MalformedProfile):
        CatalogStore().register_user(UserProfile(user_id="", name="x"))


@pytest.mark.parametrize("profile", [
    UserProfile(user_id=5, name="B"),
    UserProfile(user_id="u9", name=7),
    UserProfile(user_id="u9", name="B", address=5),
    UserProfile(user_id="u9", name="B", social_class=["x"]),
])
def test_register_user_refuses_a_field_of_the_wrong_type(tmp_path, profile):
    store = make_five_event_store()
    with pytest.raises(MalformedProfile):
        store.register_user(profile)
    path = tmp_path / "catalog.jsonl"
    store.save(path)  # nothing was admitted, so the catalog still saves and loads back
    assert CatalogStore.load(path).snapshot() == store.snapshot()


# -- usage events and contexts ----------------------------------------------------


def seeded_store():
    store = CatalogStore()
    store.put_record(text_record())
    store.register_user(UserProfile(user_id="u1", name="Ada"))
    return store


def test_record_usage_static_context_leaves_registry_unchanged():
    store = seeded_store()
    store.record_usage(event(context="teaching"))
    entries = store.list_contexts()
    assert len(entries) == 4
    assert all(e.origin == "static" for e in entries)


def test_record_usage_novel_context_enriches_registry():
    store = seeded_store()
    store.record_usage(event(context="auditing", when="2024-02-03T08:00:00"))
    entries = store.list_contexts()
    assert len(entries) == 5
    dynamic = [e for e in entries if e.origin == "dynamic"]
    assert [e.label for e in dynamic] == ["auditing"]
    assert dynamic[0].first_seen == _utc("2024-02-03T08:00:00")


def test_repeat_novel_context_adds_no_duplicate():
    store = seeded_store()
    store.record_usage(event(context="auditing"))
    store.record_usage(event(context="auditing", when="2024-03-01T00:00:00"))
    assert len(store.list_contexts()) == 5


def test_record_usage_unknown_user():
    store = CatalogStore()
    store.put_record(text_record())
    with pytest.raises(UnknownUser):
        store.record_usage(event(user="nobody"))


def test_record_usage_unknown_document():
    store = CatalogStore()
    store.register_user(UserProfile(user_id="u1", name="Ada"))
    with pytest.raises(UnknownDocument):
        store.record_usage(event(local="ghost"))


def test_record_usage_bad_use_type():
    with pytest.raises(MalformedEvent):
        seeded_store().record_usage(event(use_type="constant"))


def test_event_ids_strictly_increase():
    store = seeded_store()
    ids = [store.record_usage(event()) for _ in range(5)]
    assert ids == sorted(ids)
    assert len(set(ids)) == 5


def test_fresh_store_lists_exactly_the_static_contexts():
    labels = [e.label for e in CatalogStore().list_contexts()]
    assert sorted(labels) == ["documentation", "entertainment", "learning", "teaching"]


def test_dynamic_contexts_sort_after_static_by_first_seen():
    store = seeded_store()
    store.record_usage(event(context="zeta", when="2024-01-05T00:00:00"))
    store.record_usage(event(context="alpha", when="2024-01-06T00:00:00"))
    labels = [e.label for e in store.list_contexts()]
    assert labels[4:] == ["zeta", "alpha"]


# -- snapshots --------------------------------------------------------------------


def test_snapshot_is_unaffected_by_later_writes():
    store = seeded_store()
    store.record_usage(event())
    snapshot = store.snapshot()
    store.record_usage(event(context="later"))
    assert len(snapshot.events) == 1
    assert "later" not in snapshot.context_labels


def test_snapshots_without_writes_are_equal():
    store = make_five_event_store()
    assert store.snapshot() == store.snapshot()


def test_empty_store_snapshot():
    snapshot = CatalogStore().snapshot()
    assert snapshot.records == () and snapshot.events == () and snapshot.users == ()
    assert len(snapshot.contexts) == 4


def test_snapshot_referential_integrity():
    snapshot = make_five_event_store().snapshot()
    for e in snapshot.events:
        assert str(e.document_code) in snapshot.record_by_code
        assert e.user_id in snapshot.user_by_id
        assert e.context in snapshot.context_labels


# -- persistence --------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    store = make_five_event_store()
    path = tmp_path / "catalog.jsonl"
    store.save(path)
    assert CatalogStore.load(path).snapshot() == store.snapshot()


def test_save_is_byte_deterministic(tmp_path):
    store = make_five_event_store()
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    store.save(a)
    store.save(b)
    assert a.read_bytes() == b.read_bytes()


def test_save_load_preserves_sources(tmp_path):
    store = CatalogStore()
    descriptor = write_tabular_source(tmp_path / "books.tsv", count=3)
    store.sources.register(descriptor)
    path = tmp_path / "catalog.jsonl"
    store.save(path)
    assert CatalogStore.load(path).sources.get("lib") == descriptor


@pytest.mark.parametrize("name, value, reason", [
    ("enabled", "false", "source enabled must be a bool, got 'false'"),
    ("location", 5, "source location must be a string, got 5"),
    ("bogus", 1, "unknown source key: bogus"),
    ("mapping", {"presence": [{"medium": "text", "field": "kind"}], "defualts": {}},
     "a mapping has unknown key 'defualts'"),
    ("mapping", {"presence": [{"medium": "text", "field": "kind", "equal": "book"}]},
     "a 'presence' rule has unknown key 'equal'"),
    ("mapping", {"presence": [{"medium": "text", "field": "kind"}],
                 "fields": [{"source": "title", "target": "text.title", "transfrom": "x"}]},
     "a 'fields' rule has unknown key 'transfrom'"),
])
def test_load_refuses_a_source_line_the_registry_would_refuse(tmp_path, name, value, reason):
    store = CatalogStore()
    store.sources.register(write_tabular_source(tmp_path / "books.tsv", count=3))
    path = tmp_path / "catalog.jsonl"
    store.save(path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    source = json.loads(lines[0])
    source[name] = value
    path.write_text(json.dumps(source) + "\n" + "".join(lines[1:]), encoding="utf-8")
    with pytest.raises(CorruptCatalog) as err:
        CatalogStore.load(path)
    assert err.value.line_number == 1
    assert reason in str(err.value)


@pytest.mark.parametrize("key", ["source_id", "adapter", "location", "mapping", "enabled"])
def test_load_names_the_key_a_source_line_lacks(tmp_path, key):
    store = CatalogStore()
    descriptor = write_tabular_source(tmp_path / "books.tsv", count=3)
    store.sources.register(descriptor)
    path = tmp_path / "catalog.jsonl"
    store.save(path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    source = json.loads(lines[0])
    del source[key]
    path.write_text(json.dumps(source) + "\n" + "".join(lines[1:]), encoding="utf-8")
    if key == "enabled":  # the one key with a default: a source is enabled
        assert CatalogStore.load(path).sources.get("lib") == descriptor
        return
    with pytest.raises(CorruptCatalog, match=f"^line 1: a source has no '{key}' key$"):
        CatalogStore.load(path)


def test_catalog_file_section_ordering(tmp_path):
    import json

    store = make_five_event_store()
    store.sources.register(write_tabular_source(tmp_path / "books.tsv", count=2))
    path = tmp_path / "catalog.jsonl"
    store.save(path)
    kinds = [json.loads(line)["kind"]
             for line in path.read_text(encoding="utf-8").splitlines()]
    expected = (["source"] + ["record"] * 2 + ["user"] * 2
                + ["context"] * 4 + ["event"] * 5)
    assert kinds == expected


def test_load_truncated_file_names_the_line(tmp_path):
    store = make_five_event_store()
    path = tmp_path / "catalog.jsonl"
    store.save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    trimmed = "\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]])
    path.write_text(trimmed, encoding="utf-8")
    with pytest.raises(CorruptCatalog) as err:
        CatalogStore.load(path)
    assert err.value.line_number == len(lines)


def test_load_rejects_dangling_event(tmp_path):
    path = tmp_path / "catalog.jsonl"
    path.write_text(
        '{"kind":"event","event_id":1,"document_code":"fx:ghost","context":"teaching",'
        '"user_id":"u1","timestamp":"2024-01-01T00:00:00Z","use_type":"occasional"}\n',
        encoding="utf-8")
    with pytest.raises(CorruptCatalog) as err:
        CatalogStore.load(path)
    assert err.value.line_number == 1


def test_load_rejects_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "catalog.jsonl"
    make_five_event_store().save(path)
    lines = path.read_bytes().split(b"\n")
    lines[3] = lines[3].replace(b"}", b',"x":"\xff"}')
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(CorruptCatalog) as err:
        CatalogStore.load(path)
    assert err.value.line_number == 4
    assert "not UTF-8" in str(err.value)


def test_load_rejects_a_line_that_is_not_an_object(tmp_path):
    path = tmp_path / "catalog.jsonl"
    make_five_event_store().save(path)
    path.write_bytes(path.read_bytes() + b"[1]\n")
    with pytest.raises(CorruptCatalog) as err:
        CatalogStore.load(path)
    assert err.value.line_number == path.read_bytes().count(b"\n")


def _swap_lines_10_and_11(objs):
    objs[9], objs[10] = objs[10], objs[9]


def _set(line: int, *path_and_value):
    """A mutation setting the field at ``path`` of the object on ``line`` (1-based)."""
    *path, name, value = path_and_value

    def mutate(objs):
        target = objs[line - 1]
        for key in path:
            target = target[key]
        target[name] = value
    return mutate


# Each case breaks one line of a saved five-event catalog (records on lines 1-2,
# users 3-4, contexts 5-8, events 9-13); ``load`` must refuse that line.
LOAD_REJECTIONS = {
    "class-mismatch": (_set(1, "media_class", "text-image"), 1, "image descriptor implied"),
    "title-not-a-label": (_set(1, "text", "title", 5), 1, "text.title expects label, got 5"),
    "descriptors-not-labels": (_set(2, "text", "descriptors", "abc"), 2,
                               "text.descriptors expects labels, got 'abc'"),
    "empty-required-title": (_set(2, "text", "title", ""), 2, "text.title is required"),
    "duplicate-event-id": (_set(11, "event_id", 2), 11, "event id 2 is not above 2"),
    "events-out-of-order": (_swap_lines_10_and_11, 11, "event id 2 is not above 3"),
    "context-without-registry-line": (_set(9, "context", "seminar"), 9,
                                      "context 'seminar' has no registry line"),
    "empty-context": (_set(9, "context", ""), 9, "context label must be a non-empty string"),
    "descriptor-not-an-object": (_set(1, "text", "D1"), 1, "'str' object"),
    "timestamp-not-text": (_set(13, "timestamp", 5), 13, "'int' object"),
    "context-origin-bogus": (_set(5, "origin", "bogus"), 5,
                             "'documentation' must be static"),
    "static-context-marked-dynamic": (_set(6, "origin", "dynamic"), 6,
                                      "'entertainment' must be static"),
    "static-context-not-at-epoch": (_set(7, "first_seen", "2024-01-01T00:00:00Z"), 7,
                                    "first seen at the epoch"),
    "context-declared-twice": (_set(6, "label", "documentation"), 6,
                               "'documentation' is declared twice"),
    "novel-context-marked-static": (_set(8, "label", "seminar"), 8,
                                    "'seminar' must be dynamic, got origin 'static'"),
    "context-label-not-a-string": (_set(5, "label", 5), 5,
                                   "context label must be a non-empty string"),
    "user-id-not-a-string": (_set(4, "user_id", 5), 4,
                             "user_id must be a non-empty string, got 5"),
    "user-name-not-a-string": (_set(4, "name", 7), 4, "name must be a string, got 7"),
    "user-address-not-a-string": (_set(4, "address", 5), 4,
                                  "address must be a string or absent, got 5"),
    "user-social-class-a-list": (_set(3, "social_class", ["x"]), 3,
                                 "social_class must be a string or absent, got ['x']"),
    "event-id-a-bool": (_set(9, "event_id", True), 9, "event id must be an integer, got True"),
    "record-unknown-key": (_set(1, "bogus", 1), 1, "unknown record key: bogus"),
    "descriptor-unknown-field": (_set(2, "text", "bogus", "x"), 2,
                                 "unknown text descriptor field: bogus"),
    "record-unknown-class": (_set(1, "media_class", "video"), 1,
                             "unknown media class token: 'video'"),
    "record-code-not-text": (_set(2, "document_code", 7), 2,
                             "document code must be a string, got 7"),
    "user-unknown-key": (_set(3, "socail_class", "worker"), 3, "unknown user key: socail_class"),
    "context-unknown-key": (_set(5, "bogus", 1), 5, "unknown context key: bogus"),
    "event-unknown-key": (_set(9, "bogus", 1), 9, "unknown event key: bogus"),
    "event-id-past-64-bits": (_set(13, "event_id", 2**63), 13,
                              "event id 9223372036854775808 is above the largest"),
}


@pytest.mark.parametrize("mutate, line, reason", LOAD_REJECTIONS.values(),
                         ids=LOAD_REJECTIONS.keys())
def test_load_rejects_what_the_write_api_would_refuse(tmp_path, mutate, line, reason):
    path = tmp_path / "catalog.jsonl"
    make_five_event_store().save(path)
    objs = [json.loads(text) for text in path.read_text(encoding="utf-8").splitlines()]
    mutate(objs)
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs), encoding="utf-8")
    with pytest.raises(CorruptCatalog) as err:
        CatalogStore.load(path)
    assert err.value.line_number == line
    assert reason in str(err.value)


@pytest.mark.parametrize("context", [5, ""])
def test_record_usage_refuses_a_context_that_load_would_refuse(tmp_path, context):
    store = seeded_store()
    with pytest.raises(MalformedEvent):
        store.record_usage(event(context=context))
    path = tmp_path / "catalog.jsonl"
    store.save(path)
    assert CatalogStore.load(path).snapshot() == store.snapshot()
    assert len(store.snapshot().event_ids) == 0


def test_put_record_refuses_a_value_of_the_wrong_kind():
    store = CatalogStore()
    with pytest.raises(RecordInvalid, match="text.title expects label, got 5"):
        store.put_record(text_record(title=5))
    with pytest.raises(RecordInvalid, match="text.descriptors expects labels"):
        store.put_record(GenericRecord(
            document_code=DocumentCode.compound("fx", "d1"), media_class=MediaClass.TEXT,
            text=TextDescriptor(title="T", descriptors="abc")))
    assert store.snapshot().records == ()


def test_load_missing_file():
    with pytest.raises(StorageIO):
        CatalogStore.load("/nonexistent/catalog.jsonl")


def test_event_ids_continue_after_load(tmp_path):
    store = make_five_event_store()
    path = tmp_path / "catalog.jsonl"
    store.save(path)
    reloaded = CatalogStore.load(path)
    new_id = reloaded.record_usage(event(local="d1", user="u1"))
    assert new_id == 6


def test_timestamps_normalized_to_utc_seconds():
    store = seeded_store()
    odd = event().timestamp.replace(microsecond=999999)
    store.record_usage(dataclasses.replace(event(), timestamp=odd))
    saved = store.snapshot().events[0].timestamp
    assert saved.microsecond == 0
    assert saved.tzinfo is timezone.utc


def test_parse_timestamp_accepts_z_suffix():
    ts = parse_timestamp("2024-01-01T09:00:00Z")
    assert ts == _utc("2024-01-01T09:00:00")


@given(st.datetimes(min_value=datetime(1970, 1, 1), max_value=datetime(2100, 1, 1)))
def test_timestamp_format_parse_round_trip(value):
    from mediacube.store import format_timestamp, normalize_timestamp
    assert parse_timestamp(format_timestamp(value)) == normalize_timestamp(value)


def test_save_load_round_trip_before_year_1000(tmp_path):
    store = seeded_store()
    store.record_usage(event(context="scriptorium", when="0999-03-04T00:00:00"))
    path = tmp_path / "catalog.jsonl"
    store.save(path)
    text = path.read_text(encoding="utf-8")
    assert '"timestamp":"0999-03-04T00:00:00Z"' in text
    assert '"first_seen":"0999-03-04T00:00:00Z"' in text
    reloaded = CatalogStore.load(path)
    assert reloaded.snapshot() == store.snapshot()
    assert reloaded.snapshot().event_days == ("0999-03-04",)


def test_concurrent_readers_see_consistent_snapshots():
    import threading

    store = seeded_store()
    stop = threading.Event()
    problems: list[str] = []

    def writer():
        n = 0
        while not stop.is_set() and n < 300:
            store.record_usage(event(context=f"c{n % 7}"))
            n += 1

    def reader():
        while not stop.is_set():
            snapshot = store.snapshot()
            for e in snapshot.events:
                if e.context not in snapshot.context_labels:
                    problems.append(f"event {e.event_id} context missing")
            if list(e.event_id for e in snapshot.events) != sorted(
                    e.event_id for e in snapshot.events):
                problems.append("event ids out of order")

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    threads[0].join()
    stop.set()
    for t in threads[1:]:
        t.join()
    assert problems == []
    assert len(store.snapshot().events) == 300


def test_load_rejects_non_string_document_code(tmp_path):
    path = tmp_path / "catalog.jsonl"
    make_five_event_store().save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    event = json.loads(lines[-1])
    event["document_code"] = 123
    lines[-1] = json.dumps(event, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorruptCatalog) as err:
        CatalogStore.load(path)
    assert err.value.line_number == len(lines)
    assert "123" in str(err.value)


def test_put_record_checks_each_record_alone_as_the_catalog_grows():
    # Every record refers to the next one, which is not stored yet: the
    # reference dangles at put time and is accepted; an invalid record is
    # still refused however many records the store holds.
    store = CatalogStore()
    for i in range(300):
        store.put_record(GenericRecord(
            document_code=DocumentCode.compound("fx", f"d{i}"),
            media_class=MediaClass.TEXT,
            text=TextDescriptor(title=f"T{i}", related_documents=(
                DocumentCode.compound("fx", f"d{i + 1}"),)),
        ))
    assert len(store.snapshot().records) == 300
    bad = dataclasses.replace(text_record("d9"), media_class=MediaClass.TEXT_SOUND)
    with pytest.raises(RecordInvalid, match="sound descriptor implied by class but missing"):
        store.put_record(bad)
    assert store.get_record("fx:d9").text.title == "T9"


def test_load_streams_the_file_and_keeps_events_as_columns(tmp_path):
    # An event-heavy catalog: 20,000 events over three records and two users.
    store = CatalogStore()
    for local in ("d1", "d2", "d3"):
        store.put_record(text_record(local))
    for user in ("u1", "u2"):
        store.register_user(UserProfile(user_id=user, name=user))
    start = _utc("2024-01-01T00:00:00")
    for i in range(20_000):
        store.record_usage(dataclasses.replace(
            event(local=f"d{i % 3 + 1}", user=f"u{i % 2 + 1}", context=f"c{i % 7}"),
            timestamp=start + timedelta(minutes=7 * i)))
    path = tmp_path / "catalog.jsonl"
    store.save(path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        loaded = CatalogStore.load(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.snapshot() == store.snapshot()
    # No whole-file copy: the transient peak stays far below the file size.
    assert peak - retained < size / 4, (peak - retained, size)
    # Two 8-byte and four 4-byte columns per event, plus array headroom.
    assert retained / 20_000 < 64, retained / 20_000


# -- writing the catalog file --------------------------------------------------


def test_a_reader_during_a_failed_usage_write_sees_the_store_before_it(tmp_path, monkeypatch):
    store = make_five_event_store()
    seen: list[int] = []
    reader = threading.Thread(target=lambda: seen.append(len(store.snapshot().event_ids)))

    def failing_write(self, *args, **kwargs):
        reader.start()
        reader.join(timeout=0.5)  # it returns here unless the write holds the store lock
        raise OSError("simulated write failure")

    monkeypatch.setattr(Path, "write_text", failing_write)
    with pytest.raises(StorageIO):
        store.record_usage_and_save(event(context="seminar"), tmp_path / "catalog.jsonl")
    reader.join(timeout=5)
    assert not reader.is_alive()
    assert seen == [5]
    assert store.snapshot() == make_five_event_store().snapshot()


@pytest.mark.parametrize("context, when", [
    ("teaching", "2024-02-01T00:00:00"),  # static
    ("seminar", "2024-02-01T00:00:00"),  # dynamic, already registered
    ("atelier", "2024-02-01T00:00:00"),  # novel, first seen before "seminar"
    ("workshop", "2024-04-01T00:00:00"),  # novel, first seen after it
])
def test_a_usage_write_is_byte_identical_to_a_save_of_the_same_state(tmp_path, context, when):
    store = make_five_event_store()
    store.record_usage(event(context="seminar", when="2024-03-01T00:00:00"))
    path = tmp_path / "catalog.jsonl"
    assert store.record_usage_and_save(event(context=context, when=when), path) == 7
    written = path.read_bytes()
    store.save(path)
    assert path.read_bytes() == written
    assert CatalogStore.load(path).snapshot() == store.snapshot()


@pytest.mark.parametrize("name", ["catalog.jsonl", "."])
def test_a_save_over_a_directory_fails_and_leaves_no_temporary_file(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    Path(name).mkdir(exist_ok=True)  # os.replace cannot put a file over a directory
    with pytest.raises(StorageIO):
        make_five_event_store().save(name)
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []


def test_a_save_of_text_that_is_not_unicode_fails_and_leaves_the_old_file(tmp_path):
    path = tmp_path / "catalog.jsonl"
    make_five_event_store().save(path)
    before = path.read_bytes()
    store = make_five_event_store()
    store.register_user(UserProfile(user_id="u3", name="Ida \udc80"))  # a lone surrogate
    with pytest.raises(StorageIO, match="surrogate"):
        store.save(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# -- records held as their catalog lines ------------------------------------------


def _varied_record_store() -> CatalogStore:
    """The five-event store plus a record with a date, labels, a reference and an image."""
    store = make_five_event_store()
    store.put_record(GenericRecord(
        document_code=DocumentCode.compound("fx", "d3"),
        media_class=MediaClass.TEXT_IMAGE,
        text=TextDescriptor(title="Café", reference_date=date(2024, 1, 1),
                            descriptors=("k1", "k2"),
                            related_documents=(DocumentCode.compound("fx", "d1"),)),
        image=ImageDescriptor(dominant_colour="red", dominant_shape="oval", image_format="png",
                              image_medium="paper", image_type="sketch"),
    ))
    return store


def _compact(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _reversed_keys(obj):
    if not isinstance(obj, dict):
        return obj
    return {k: _reversed_keys(v) for k, v in reversed(obj.items())}


def _with_text(**absent):
    """Adds each field the text descriptor lacks, as ``record_to_dict`` never writes it."""
    return lambda obj: _compact({**obj, "text": {**absent, **obj["text"]}})


def _with_date(text: str):
    def rewrite(obj):
        if "reference_date" in obj["text"]:
            obj["text"]["reference_date"] = text
        return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return rewrite


# Each case rewrites every record line of a saved catalog into a form that ``load``
# accepts and ``save`` never writes.
NON_CANONICAL_RECORD_LINES = {
    "default-separators": lambda obj: json.dumps(obj, sort_keys=True, ensure_ascii=False),
    "unsorted-keys": lambda obj: _compact(_reversed_keys(obj)),
    "unsorted-descriptor-keys": lambda obj: _compact(
        {key: _reversed_keys(value) for key, value in obj.items()}),
    "author-null": _with_text(author=None),
    "descriptors-empty": _with_text(descriptors=[]),
    "escaped-non-ascii": lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":")),
    "basic-format-date": _with_date("20240101"),
    "week-date": _with_date("2024-W01-1"),  # as long as its canonical text, 2024-01-01
    "repeated-key": lambda obj: '{"document_code":"fx:zz",' + _compact(obj)[1:],
    "crlf": lambda obj: _compact(obj) + "\r",
    "leading-space": lambda obj: " " + _compact(obj),
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="date.fromisoformat is ISO-only from 3.11")
@pytest.mark.parametrize("rewrite", NON_CANONICAL_RECORD_LINES.values(),
                         ids=NON_CANONICAL_RECORD_LINES.keys())
def test_save_after_load_writes_canonical_record_lines(tmp_path, rewrite):
    store = _varied_record_store()
    canonical, varied, resaved = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    store.save(canonical)
    lines = canonical.read_text(encoding="utf-8").splitlines()
    varied.write_text("".join(
        (rewrite(json.loads(line)) if '"kind":"record"' in line else line) + "\n"
        for line in lines), encoding="utf-8")
    assert varied.read_bytes() != canonical.read_bytes()
    loaded = CatalogStore.load(varied)
    loaded.save(resaved)
    assert resaved.read_bytes() == canonical.read_bytes()
    assert loaded.snapshot() == store.snapshot()


# A record line one character longer than its canonical text, last in a file that
# has no final newline: save must still end it with one.
@pytest.mark.parametrize("title, rewrite", [("floppy", lambda line: " " + line),
                                             ('5" floppy', lambda line: line)],  # escaped: \"
                         ids=["leading-space", "escaped-quote"])
def test_save_after_load_ends_a_last_record_line_without_a_newline(tmp_path, title, rewrite):
    store = _varied_record_store()
    store.put_record(text_record("d4", title=title))
    canonical, varied, resaved = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    store.save(canonical)
    lines = canonical.read_text(encoding="utf-8").splitlines()
    last = next(line for line in lines if '"document_code":"fx:d4"' in line)
    lines.remove(last)
    varied.write_text("".join(line + "\n" for line in lines) + rewrite(last), encoding="utf-8")
    loaded = CatalogStore.load(varied)
    loaded.save(resaved)
    assert resaved.read_bytes() == canonical.read_bytes()
    assert CatalogStore.load(resaved).snapshot() == store.snapshot()


def test_a_loaded_record_is_decoded_when_first_read_and_once(tmp_path, monkeypatch):
    path = tmp_path / "catalog.jsonl"
    _varied_record_store().save(path)
    built = count_record_builds(monkeypatch)
    store = CatalogStore.load(path)
    snapshot = store.snapshot()
    assert sorted(snapshot.record_by_code) == ["fx:d1", "fx:d2", "fx:d3"]
    assert "fx:d3" in snapshot.record_by_code and "fx:zz" not in snapshot.record_by_code
    assert built == []
    record = store.get_record("fx:d3")
    assert store.get_record("fx:d3") is record
    assert record.text.reference_date == date(2024, 1, 1)
    assert snapshot.record_by_code["fx:d1"] is snapshot.record_by_code["fx:d1"]
    assert built == ["fx:d3", "fx:d1"]
    assert [str(r.document_code) for r in snapshot.records] == ["fx:d1", "fx:d2", "fx:d3"]
    assert len(built) == 4


def test_a_record_put_is_read_back_as_the_same_object():
    store = CatalogStore()
    record = text_record()
    store.put_record(record)
    assert store.get_record("fx:d1") is record
    assert store.snapshot().record_by_code["fx:d1"] is record


@pytest.mark.parametrize("read_first", [False, True])
def test_a_snapshot_keeps_the_records_it_was_taken_with(tmp_path, read_first):
    path = tmp_path / "catalog.jsonl"
    _varied_record_store().save(path)
    store = CatalogStore.load(path)
    before = store.snapshot()
    if read_first:
        assert before.record_by_code["fx:d1"].text.title == "D1"
    store.put_record(text_record("d1", title="replaced"))
    assert before.record_by_code["fx:d1"].text.title == "D1"
    assert before.records[0].text.title == "D1"
    assert before == CatalogStore.load(path).snapshot()
    after = store.snapshot()
    assert after != before
    assert after.record_by_code["fx:d1"].text.title == "replaced"


def test_threads_decoding_the_same_records_all_get_the_same_objects(tmp_path):
    path = tmp_path / "catalog.jsonl"
    store = CatalogStore()
    for i in range(200):
        store.put_record(text_record(f"d{i}"))
    store.save(path)
    loaded = CatalogStore.load(path)
    snapshot = loaded.snapshot()
    codes = [f"fx:d{i}" for i in range(200)]
    seen: list[list] = [[] for _ in range(8)]
    barrier = threading.Barrier(len(seen))

    def read(index):
        barrier.wait(timeout=5)
        read_one = snapshot.record_by_code.__getitem__ if index % 2 else loaded.get_record
        seen[index].extend(map(read_one, codes))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(seen))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index in range(2, len(seen)):
        assert all(a is b for a, b in zip(seen[index], seen[index % 2], strict=True))
    assert [str(r.document_code) for r in seen[1]] == codes


def test_put_record_refuses_an_empty_string_in_a_date_field(tmp_path):
    store = CatalogStore()
    with pytest.raises(RecordInvalid, match="text.reference_date expects date, got ''"):
        store.put_record(GenericRecord(
            document_code=DocumentCode.compound("fx", "d1"), media_class=MediaClass.TEXT,
            text=TextDescriptor(title="T", reference_date="")))
    store.save(tmp_path / "catalog.jsonl")
    assert CatalogStore.load(tmp_path / "catalog.jsonl").snapshot() == store.snapshot()


# -- record lines admitted by a plan per shape --------------------------------------


def _sets(line: int, *changes):
    """A mutation applying each ``(path..., name, value)`` change to the object on ``line``."""
    def mutate(objs):
        for change in changes:
            _set(line, *change)(objs)
    return mutate


_date_case = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="date.fromisoformat is ISO-only from 3.11")

# Cases a plan could get wrong, each on line 3 (fx:d3, a text-image record with a date,
# labels, a related code and an image) of ``_varied_record_store``. ``None``: the line
# loads; otherwise a part of the refusal's message.
PLAN_CASES = {
    "closed-vocabulary-miss": (_set(3, "image", "dominant_colour", "mauve"),
                               "image.dominant_colour value 'mauve' not in colour vocabulary"),
    "optional-closed-vocabulary-miss": (_set(3, "image", "secondary_colour", "mauve"),
                                        "image.secondary_colour value 'mauve' not in colour"),
    "empty-required-label": (_set(3, "image", "image_format", ""),
                             "image.image_format is required"),
    "empty-required-closed-label": (_set(3, "image", "dominant_colour", ""),
                                    "image.dominant_colour is required"),
    "empty-optional-closed-label": (_set(3, "image", "secondary_colour", ""), None),
    "null-field": (_set(3, "text", "author", None), None),
    "null-required-field": (_set(3, "text", "title", None), "text.title is required"),
    "empty-list-field": (_set(3, "text", "descriptors", []), None),
    "number-in-labels": (_set(3, "text", "descriptors", ["k1", 2]),
                         "text.descriptors expects labels, got ['k1', 2]"),
    "malformed-related-code": (_set(3, "text", "related_documents", ["nocolon"]),
                               "text.related_documents expects codes, got ['nocolon']"),
    "related-code-bad-escape": (_set(3, "text", "related_documents", ["fx:a\\b"]),
                                "text.related_documents expects codes"),
    "malformed-document-code": (_set(3, "document_code", "fx:a:b"), "unescaped ':' in local_id"),
    "basic-format-date": pytest.param(_set(3, "text", "reference_date", "20240101"), None,
                                      marks=_date_case),
    "date-out-of-range": (_set(3, "text", "reference_date", "2024-02-30"),
                          "text.reference_date expects date, got '2024-02-30'"),
    "subclass-without-feature": (_set(3, "image", "dominant_feature_subclass", "animal-mammal"),
                                 "dominant feature sub-class given without a dominant feature"),
    "subclass-not-parent-child": (
        _sets(3, ("image", "dominant_feature", "animal"),
              ("image", "dominant_feature_subclass", "mammal")),
        "sub-class labels use the parent-child form, got 'mammal'"),
    "subclass-with-feature": (
        _sets(3, ("image", "dominant_feature", "animal"),
              ("image", "dominant_feature_subclass", "animal.mammal")), None),
    "class-without-its-medium": (_set(3, "media_class", "text-image-sound"),
                                 "sound descriptor implied by class but missing"),
}


def _load_outcome(path: Path, resaved: Path) -> tuple:
    """``load`` of ``path``: the refused line and message, or the bytes a save then writes."""
    try:
        CatalogStore.load(path).save(resaved)
    except CorruptCatalog as exc:
        return exc.line_number, str(exc)
    return resaved.read_bytes()


def _replay_canonically(tmp_path, store: CatalogStore, mutate) -> tuple:
    """The outcomes of loading ``store``'s catalog broken by ``mutate``, its lines written as
    ``save`` writes them and, as no plan admits, with ``json.dumps``'s default separators."""
    path = tmp_path / "catalog.jsonl"
    store.save(path)
    objs = [json.loads(text) for text in path.read_text(encoding="utf-8").splitlines()]
    mutate(objs)
    outcomes = []
    for dump in (lambda obj: json.dumps(obj, sort_keys=True, ensure_ascii=False,
                                        separators=(",", ":")), json.dumps):
        path.write_text("".join(dump(obj) + "\n" for obj in objs), encoding="utf-8")
        outcomes.append(_load_outcome(path, tmp_path / "resaved.jsonl"))
    return tuple(outcomes)


RECORD_REJECTIONS = {name: case for name, case in LOAD_REJECTIONS.items() if case[1] <= 2}


@pytest.mark.parametrize("mutate, line, reason", RECORD_REJECTIONS.values(),
                         ids=RECORD_REJECTIONS.keys())
def test_load_refuses_a_canonical_record_line_as_it_refuses_any_other(tmp_path, mutate, line,
                                                                    reason):
    canonical, default = _replay_canonically(tmp_path, make_five_event_store(), mutate)
    assert canonical == default
    assert canonical[0] == line and reason in canonical[1]


@pytest.mark.parametrize("mutate, reason", PLAN_CASES.values(), ids=PLAN_CASES.keys())
def test_a_plan_admits_only_what_the_full_check_admits(tmp_path, mutate, reason):
    canonical, default = _replay_canonically(tmp_path, _varied_record_store(), mutate)
    assert canonical == default
    if reason is None:
        assert isinstance(canonical, bytes)
    else:
        assert canonical[0] == 3 and reason in canonical[1]


def test_a_canonical_catalog_loads_without_the_full_record_check(tmp_path, monkeypatch):
    path = tmp_path / "catalog.jsonl"
    _varied_record_store().save(path)
    checked = []
    monkeypatch.setattr(mediacube.store, "check_record_dict", checked.append)
    assert CatalogStore.load(path).snapshot() == _varied_record_store().snapshot()
    assert checked == []


def test_load_writes_the_default_target_of_a_sound_line_without_one(tmp_path):
    store = CatalogStore()
    store.put_record(GenericRecord(document_code=DocumentCode.compound("fx", "s1"),
                                   media_class=MediaClass.SOUND,
                                   sound=SoundDescriptor(originator="O", sound_type="music")))
    canonical, varied, resaved = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    store.save(canonical)
    text = canonical.read_text(encoding="utf-8")
    varied.write_text(text.replace(',"target":"not-specified"', ""), encoding="utf-8")
    assert varied.read_text(encoding="utf-8") != text
    loaded = CatalogStore.load(varied)
    loaded.save(resaved)
    assert resaved.read_bytes() == canonical.read_bytes()
    assert loaded.snapshot() == store.snapshot()


# A differential of the plans against the full check: records built valid, broken by drawn
# faults, and each written as ``save`` writes it and in forms it does not.

#: Each field's value in a valid record, as ``record_to_dict`` writes it.
_GOOD_JSON = {
    "text": {"title": "T", "author": "Café", "summary": "S", "reference_date": "2024-01-01",
             "descriptors": ["k1", "k2"], "related_documents": ["fx:d1", "fx:d2"]},
    "image": {"dominant_colour": "red", "secondary_colour": "blue", "dominant_shape": "oval",
              "secondary_shape": "circle", "shape_specificity": "deformed",
              "dominant_object": "tool", "object_specificity": "at background",
              "secondary_object": "gadget", "dominant_feature": "animal",
              "secondary_feature": "water body", "dominant_feature_subclass": "animal-mammal",
              "secondary_feature_subclass": "water.ocean", "image_format": "png",
              "image_medium": "paper", "image_type": "sketch"},
    "sound": {"originator": "O", "target": "public", "descriptors": ["k"],
              "publication_date": "1999-12-31", "sound_type": "music",
              "sound_class": "debate", "sound_subclass": "disorder"},
}
#: Per field kind or name, values that break a field or are not the form ``save`` writes.
_ODD_JSON = {"label": ["", None, 1, 'q"uote', "é\u2028"], "closed": ["mauve", ""],
             "date": ["20240101", "2024-02-30", "", None], "labels": [[], ["k", 1], "k", [""]],
             "codes": [[], ["nocolon"], ["fx:a:b"], ["fx:a\\b"], "fx:d1"],
             **dict.fromkeys(["dominant_feature_subclass", "secondary_feature_subclass"],
                             ["mammal", "", "animal"])}
#: The line ``save`` writes for a record, and lines that hold the same record otherwise.
_DUMPS = (_dump_line, lambda obj: json.dumps(obj) + "\n", lambda obj: _compact(obj) + "\n",
          lambda obj: _dump_line(obj)[:-1], lambda obj: _dump_line(obj).replace(":", ": ", 1),
          lambda obj: _dump_line(obj).replace('"kind":"record"', '"kind":"record","kind":"record"'))
_REQUIRED_JSON = {"title", "dominant_colour", "dominant_shape", "image_format", "image_medium",
                  "image_type", "originator", "sound_type"}


def _break(obj: dict, fault: str, at: int) -> None:
    """Apply ``fault`` to the record ``obj``, to its part and with the value ``at`` picks."""
    media = [m for m in MEDIA if type(obj.get(m)) is dict]
    fields = [(medium, name) for medium in media for name in sorted(obj[medium])]
    if fault == "value" and fields:  # a field of a group its odd values break, then a value
        groups = {}
        for medium, name in fields:
            if (spec := MEDIUM_FIELDS[medium].get(name)) is not None:
                closed = not getattr(BUILTIN_VOCABULARIES.get(spec.vocabulary), "open", True)
                key = name if name in _ODD_JSON else "closed" if closed else spec.kind.name
                groups.setdefault(key, []).append((medium, name))
        key, group = sorted(groups.items())[at % len(groups)]
        medium, name = group[at // 5 % len(group)]
        obj[medium][name] = _ODD_JSON[key][at // 7 % len(_ODD_JSON[key])]
    elif fault == "drop-field" and fields:
        medium, name = fields[at % len(fields)]
        del obj[medium][name]
    elif fault == "bogus-field" and media:
        obj[media[at % len(media)]]["bogus"] = "b"
    elif fault == "extra-key":
        obj["extra"] = "b"
    elif fault in ("document_code", "media_class"):
        obj[fault] = ["bad", "fx:a:b", "video", "text", None, 7][at % 6]
    elif fault == "descriptor" and media:
        obj[media[at % len(media)]] = ["D", [], None][at % 3]
    elif fault == "drop-medium" and media:
        del obj[media[at % len(media)]]
    elif fault == "add-medium":
        obj.setdefault("sound", {"originator": "O", "sound_type": "music", "target": "public"})


@st.composite
def _records(draw) -> dict:
    """A record in JSON form, with its ``kind``: valid where no fault is drawn."""
    media = draw(st.lists(st.sampled_from(MEDIA), min_size=1, max_size=3, unique=True))
    media.sort(key=MEDIA.index)
    obj = {"kind": "record", "document_code": "fx:d9", "media_class": "-".join(media)}
    for medium in media:
        obj[medium] = {name: value for name, value in _GOOD_JSON[medium].items()
                       if name in _REQUIRED_JSON or draw(st.integers(0, 3))}
    faults = st.sampled_from(["value"] * 6 + ["drop-field", "bogus-field", "extra-key",
                                              "document_code", "media_class", "descriptor",
                                              "drop-medium", "add-medium"])
    for fault, at in draw(st.lists(st.tuples(faults, st.integers(0, 999)), max_size=2)):
        _break(obj, fault, at)
    return obj


@settings(max_examples=1000, deadline=None)
@given(_records())
def test_a_plan_admits_a_line_only_where_the_full_check_and_a_re_encode_keep_it(obj):
    for text in {dump(obj) for dump in _DUMPS}:  # canonical, or not as ``save`` writes it
        data = json.loads(text)
        if mediacube.store._admits(text, data):
            assert check_record_dict(data).ok
            assert _dump_line({"kind": "record", **record_to_dict(record_from_dict(data))}) == text


_TEXT_OPTIONAL = {"author": "A", "summary": "S", "reference_date": date(2024, 1, 1),
                  "descriptors": ("k1", "k2"),
                  "related_documents": (DocumentCode.compound("fx", "d1"),)}
_IMAGE_OPTIONAL = {"secondary_colour": "blue", "secondary_shape": "circle",
                   "shape_specificity": "deformed", "dominant_object": "tool",
                   "object_specificity": "deformed"}


def _shaped_record(shape: int) -> GenericRecord:
    """A text-image record whose optional fields are the set bits of ``shape`` (0-1023)."""
    text = {name: value for bit, (name, value) in enumerate(_TEXT_OPTIONAL.items())
            if shape >> bit & 1}
    image = {name: value for bit, (name, value) in enumerate(_IMAGE_OPTIONAL.items(), 5)
             if shape >> bit & 1}
    return GenericRecord(
        document_code=DocumentCode.compound("fx", f"s{shape:04d}"),
        media_class=MediaClass.TEXT_IMAGE, text=TextDescriptor(title="T", **text),
        image=ImageDescriptor(dominant_colour="red", dominant_shape="oval", image_format="png",
                              image_medium="paper", image_type="sketch", **image))


def test_a_catalog_of_more_shapes_than_plans_kept_loads_as_saved(tmp_path, monkeypatch):
    store = CatalogStore()
    for shape in range(1000):
        store.put_record(_shaped_record(shape))
    path, resaved = tmp_path / "catalog.jsonl", tmp_path / "resaved.jsonl"
    store.save(path)
    plans = mediacube.store._record_plan
    plans.cache_clear()
    checked = []
    monkeypatch.setattr(mediacube.store, "check_record_dict", checked.append)
    loaded = CatalogStore.load(path)
    assert checked == []  # a line past the kept plans is admitted by a plan of its own
    assert plans.cache_info().misses == 1000
    assert plans.cache_info().currsize == plans.cache_info().maxsize == mediacube.store._PLANS_KEPT
    assert loaded.snapshot() == store.snapshot()
    loaded.save(resaved)
    assert resaved.read_bytes() == path.read_bytes()


def test_a_usage_write_past_the_last_event_id_writes_nothing(tmp_path):
    path = tmp_path / "catalog.jsonl"
    make_five_event_store().save(path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[-1] = lines[-1].replace('"event_id":5,', f'"event_id":{2**63 - 1},')
    path.write_text("".join(lines), encoding="utf-8")
    before = path.read_bytes()
    store = CatalogStore.load(path)
    snapshot = store.snapshot()
    for write in (lambda: store.record_usage_and_save(event(), path),
                  lambda: store.record_usage(event())):
        with pytest.raises(StorageIO, match="event id 9223372036854775808 is above the largest"):
            write()
    assert path.read_bytes() == before
    assert store.snapshot() is snapshot
    assert CatalogStore.load(path).snapshot() == snapshot
