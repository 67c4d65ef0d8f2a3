"""Posting lists on the event columns: a snapshot's queries see its own rows only.

The store fills each column's postings when ``snapshot()`` runs, and every
snapshot shares them, cutting each at its own row count. These tests check the
cube against the brute-force oracle across appends that bring values the
earlier snapshot has never seen.
"""

from __future__ import annotations

import random
import sys
import threading
from datetime import date, datetime, timezone
from itertools import product

from catalog_fixtures import make_five_event_store
from mediacube import (
    CubeQuery,
    DocumentCode,
    GenericRecord,
    MediaClass,
    TextDescriptor,
    UsageEvent,
    UserProfile,
    cube_query,
)
from oracle import (all_dimension_subsets, assert_cube_matches_oracle, dimension_filter_from,
                    random_store)

QUIET = DocumentCode.compound("fx", "quiet")  # registered before snapshot A, used only after
MOON = datetime(1969, 7, 20, 20, 17, 40, tzinfo=timezone.utc)  # a day before 1970


def _store_with_a_quiet_document():
    store = random_store(random.Random(11), max_docs=12, max_users=6, max_contexts=6,
                         max_events=400)
    store.put_record(GenericRecord(document_code=QUIET, media_class=MediaClass.TEXT,
                                   text=TextDescriptor(title="Quiet")))
    return store


def _use(store, code, context, user_id, timestamp, use_type="occasional") -> int:
    return store.record_usage(UsageEvent(document_code=code, context=context, user_id=user_id,
                                         timestamp=timestamp, use_type=use_type))


def _append_novel_events(store) -> None:
    """Events with a novel context, a novel user, a day before 1970 and the quiet document."""
    busy = store.snapshot().records[0].document_code
    store.register_user(UserProfile(user_id="newcomer", name="Newcomer"))
    _use(store, QUIET, "workshop", "newcomer", MOON)
    _use(store, busy, "workshop", "u00", datetime(2024, 1, 5, 8, tzinfo=timezone.utc))
    _use(store, QUIET, "teaching", "newcomer", datetime(2024, 1, 5, 9, tzinfo=timezone.utc))
    _use(store, busy, "teaching", "u00", MOON.replace(hour=23), "repetitive")


def _fixings(snapshot, novel: bool) -> list[dict]:
    """Fixed values for every subset of the dimensions: seen, unused and (``novel``) new ones."""
    candidates = {
        "document": [str(snapshot.records[0].document_code), str(QUIET)],
        "context": ["teaching", "learning"] + ["workshop"] * novel,
        "user": ["u00"] + ["newcomer"] * novel,
        "time": [date(2024, 1, 5), MOON.date(),
                 (datetime(1969, 7, 1, tzinfo=timezone.utc),
                  datetime(2024, 1, 20, tzinfo=timezone.utc))],
    }
    candidates["context"] = [c for c in candidates["context"] if c in snapshot.context_labels]
    return [dict(zip(dims, values)) for dims in all_dimension_subsets()
            for values in product(*(candidates[d] for d in dims))]


def _results(snapshot, fixings: list[dict]) -> list:
    return [cube_query(snapshot, CubeQuery(fixed=dimension_filter_from(fixed),
                                           time_granularity=granularity))
            for fixed in fixings for granularity in ("day", "year")]


def test_postings_match_the_oracle_before_and_after_appends_of_novel_values():
    store = _store_with_a_quiet_document()
    a = store.snapshot()
    a_fixings = _fixings(a, novel=False)
    before = _results(a, a_fixings)

    _append_novel_events(store)
    # A's postings are shared with the store; no snapshot has filled them yet.
    assert _results(a, a_fixings) == before
    b = store.snapshot()
    assert _results(a, a_fixings) == before
    assert len(b.event_ids) == len(a.event_ids) + 4

    for fixed in a_fixings:
        assert_cube_matches_oracle(a, fixed)
    b_fixings = _fixings(b, novel=True)
    assert any(fixed.get("context") == "workshop" for fixed in b_fixings)
    for fixed in b_fixings:
        for granularity in ("day", "month"):
            assert_cube_matches_oracle(b, fixed, granularity)
    newest = {"document": str(QUIET), "context": "workshop", "user": "newcomer",
              "time": MOON.date()}
    assert assert_cube_matches_oracle(b, newest).total == 1
    assert assert_cube_matches_oracle(a, {"document": str(QUIET)}).total == 0


def test_a_snapshot_decodes_its_own_days_after_later_fills():
    store = _store_with_a_quiet_document()
    a = store.snapshot()  # its day labels are not read until later snapshots filled more
    _append_novel_events(store)
    store.snapshot()
    assert a.event_days == tuple(e.timestamp.date().isoformat() for e in a.events)
    assert store.snapshot().event_days[-4:] == ("1969-07-20", "2024-01-05", "2024-01-05",
                                                "1969-07-20")


def test_a_value_with_no_events_gives_no_cells():
    store = make_five_event_store()
    store.register_user(UserProfile(user_id="u3", name="Ida"))
    store.put_record(GenericRecord(document_code=DocumentCode.compound("fx", "d3"),
                                   media_class=MediaClass.TEXT, text=TextDescriptor(title="D3")))
    snapshot = store.snapshot()
    for fixed in ({"user": "u3"}, {"context": "documentation"}, {"document": "fx:d3"},
                  {"user": "u3", "context": "teaching"}, {"context": "entertainment",
                                                          "time": date(2024, 1, 1)}):
        result = assert_cube_matches_oracle(snapshot, fixed)
        assert (result.cells, result.total) == ((), 0)


def test_a_snapshot_answers_the_same_while_another_thread_appends():
    store = _store_with_a_quiet_document()
    a = store.snapshot()
    fixings = _fixings(a, novel=False)
    expected = _results(a, fixings)
    busy = a.records[0].document_code
    problems: list[str] = []
    done = threading.Event()

    def writer():
        try:
            for i in range(300):  # rows on the values that A's queries fix
                code = QUIET if i % 2 else busy
                _use(store, code, "teaching" if i % 3 else f"novel-{i}", "u00",
                     datetime(2024, 1, 5, i % 24, tzinfo=timezone.utc))
                store.snapshot()
        except Exception as exc:  # reported through the assertion below
            problems.append(repr(exc))
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so reads land between appends
    try:
        thread = threading.Thread(target=writer)
        thread.start()
        rounds = 0
        while not done.is_set() or rounds == 0:
            if _results(a, fixings) != expected:
                problems.append(f"round {rounds}: A's results changed")
                break
            rounds += 1
        thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert problems == []
    assert len(store.snapshot().event_ids) == len(a.event_ids) + 300
    for fixed in _fixings(store.snapshot(), novel=False)[::7]:
        assert_cube_matches_oracle(store.snapshot(), fixed)
