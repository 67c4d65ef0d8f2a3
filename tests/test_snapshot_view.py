"""A snapshot is a row count over the store's event table, not a copy of it.

``snapshot()`` hands out the store's columns with the number of rows it saw,
and a column is cut or decoded to that count only when something reads it.
These tests check what is decoded when, that equality tells apart two logs
that differ in any one event column, and that rows appended later never
reach an earlier snapshot.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

import pytest

from catalog_fixtures import count_record_builds, make_five_event_store
from mediacube import (
    CubeQuery,
    DimensionFilter,
    DocumentCode,
    GenericRecord,
    MediaClass,
    TextDescriptor,
    UsageEvent,
    UserProfile,
    cube_query,
)
from mediacube.store import CatalogStore

#: Each event column, the catalog-line key that holds it, and the value to write in
#: place of the last event's: the same day, a static context and a registered user.
VARIANTS = {
    "id": ("event_id", 9),
    "seconds": ("timestamp", "2024-01-02T12:00:01Z"),
    "document": ("document_code", "fx:d1"),
    "context": ("context", "teaching"),
    "user": ("user_id", "u1"),
    "use_type": ("use_type", "repetitive"),
}
EVENT_COLUMNS = tuple(VARIANTS)


def test_taking_a_snapshot_decodes_no_column_and_a_query_only_the_columns_it_reads():
    store = make_five_event_store()
    snapshot = store.snapshot()
    assert snapshot.decoded == {}
    store.register_user(UserProfile(user_id="u3", name="Ida"))
    store.record_usage(UsageEvent(document_code=DocumentCode.compound("fx", "d1"),
                                  context="teaching", user_id="u3", use_type="occasional",
                                  timestamp=datetime(2024, 1, 3, tzinfo=timezone.utc)))
    later = store.snapshot()
    assert later.decoded == {}
    assert later.columns is snapshot.columns  # one table, shared
    assert (snapshot.rows, later.rows, len(snapshot.columns["id"])) == (5, 6, 6)

    result = cube_query(snapshot, CubeQuery(fixed=DimensionFilter(user="u1")))
    assert result.total == 3
    # The user's posting gives the rows; document, context and day are the free keys.
    assert set(snapshot.decoded) == {"id", "document", "context", "time"}
    assert snapshot.event_ids is snapshot.decoded["id"]
    assert list(snapshot.event_ids) == [1, 2, 3, 4, 5]
    assert later.decoded == {}


def _catalog_lines(tmp_path) -> list[str]:
    path = tmp_path / "base.jsonl"
    make_five_event_store().save(path)
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


@pytest.mark.parametrize("name", EVENT_COLUMNS)
def test_two_logs_that_differ_in_one_event_column_give_unequal_snapshots(tmp_path, monkeypatch,
                                                                          name):
    lines = _catalog_lines(tmp_path)
    key, value = VARIANTS[name]
    last = json.loads(lines[-1])
    assert last["kind"] == "event" and last[key] != value
    changed = tmp_path / "changed.jsonl"
    changed.write_text("".join(lines[:-1]) + json.dumps({**last, key: value}) + "\n",
                       encoding="utf-8")
    base = CatalogStore.load(tmp_path / "base.jsonl").snapshot()
    other = CatalogStore.load(changed).snapshot()

    built = count_record_builds(monkeypatch)
    assert [n for n in EVENT_COLUMNS if base.column(n) != other.column(n)] == [name]
    assert base.column("time") == other.column("time")
    assert base != other and other != base
    assert base == CatalogStore.load(tmp_path / "base.jsonl").snapshot()
    assert built == []  # equality decodes no record


def test_a_snapshot_still_equals_its_saved_catalog_after_appends_of_novel_values(tmp_path):
    store = make_five_event_store()
    snapshot = store.snapshot()
    path = tmp_path / "catalog.jsonl"
    store.save(path)

    novel = DocumentCode.compound("fx", "d9")
    store.put_record(GenericRecord(document_code=novel, media_class=MediaClass.TEXT,
                                   text=TextDescriptor(title="D9")))
    store.register_user(UserProfile(user_id="u9", name="Newcomer"))
    for when in (datetime(1999, 12, 31, 8), datetime(2000, 1, 1, 8)):
        store.record_usage(UsageEvent(document_code=novel, context="workshop", user_id="u9",
                                      timestamp=when.replace(tzinfo=timezone.utc),
                                      use_type="repetitive"))
    later = store.snapshot()  # fills the day column and postings past the snapshot's rows
    assert later.rows == snapshot.rows + 2 and later.event_days[-2:] == ("1999-12-31",
                                                                          "2000-01-01")

    assert snapshot == CatalogStore.load(path).snapshot()
    assert snapshot.event_days == ("2024-01-01", "2024-01-01", "2024-01-02", "2024-01-02",
                                   "2024-01-02")
    assert [e.context for e in snapshot.events] == [
        "teaching", "learning", "teaching", "teaching", "learning"]
    assert cube_query(snapshot, CubeQuery(fixed=DimensionFilter(user="u1"))).total == 3
