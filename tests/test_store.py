from __future__ import annotations

import dataclasses
import json
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from catalog_fixtures import make_five_event_store, write_tabular_source
from mediacube.codes import DocumentCode, parse_document_code
from mediacube.descriptors import GenericRecord, SoundDescriptor, TextDescriptor
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
    # Two 8-byte and five 4-byte columns per event, plus array headroom.
    assert retained / 20_000 < 64, retained / 20_000
