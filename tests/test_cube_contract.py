"""The result contract of the cube and the five reports.

Catalogs here are shaped like real usage logs rather than like
``oracle.random_store``: events cross a year boundary, dynamic contexts
enter the registry in non-alphabetical order, codes come from several
sources (including a URI and an escaped local id), one user has no social
class and one has no events. Every query is checked against the
brute-force oracle, against hand-counted values, and against the ordering
rule of its result, on a store built by writes and on the same store
reloaded from disk (the two paths that build the per-event key columns).
"""

from __future__ import annotations

import random
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from itertools import product

import pytest

from mediacube import (
    CatalogStore,
    CubeQuery,
    DimensionFilter,
    DocumentCode,
    GenericRecord,
    MediaClass,
    TextDescriptor,
    UsageEvent,
    UserProfile,
    context_by_social_class,
    cube_query,
    document_importance,
    parse_document_code,
    usage_evolution,
    usage_type_ratio,
    user_interest,
)
from oracle import all_dimension_subsets, assert_cube_matches_oracle, brute_force_cube

GRANULARITIES = ("day", "month", "year")

CODES = (
    DocumentCode.compound("tab", "b1"),
    DocumentCode.compound("tab", "a:b"),  # serialized as tab:a\:b
    DocumentCode.for_uri("https://example.org/doc"),
    DocumentCode.compound("ft", "z9"),
    DocumentCode.compound("line", "M-1"),  # never used
)
USERS = (("u-alice", "student"), ("u-bob", "teacher"), ("u-carol", None),
         ("u-dave", "researcher"))  # u-dave has no events

# (code index, context, user, ISO instant, use type), in event-id order.
EVENTS = (
    (0, "zeta-lab", "u-alice", "2023-12-30T10:00:00+00:00", "repetitive"),
    (1, "teaching", "u-alice", "2023-12-31T23:59:59+00:00", "occasional"),
    (2, "teaching", "u-carol", "2024-01-01T01:30:00+02:00", "occasional"),  # UTC 2023-12-31
    (0, "alpha-club", "u-bob", "2024-01-01T00:00:00+00:00", "repetitive"),
    (3, "learning", "u-carol", "2024-01-02T12:00:00+00:00", "occasional"),
    (0, "teaching", "u-alice", "2024-01-02T08:00:00+00:00", "occasional"),
    (1, "zeta-lab", "u-bob", "2024-02-15T09:00:00+00:00", "occasional"),
    (0, "zeta-lab", "u-alice", "2024-02-15T18:00:00+00:00", "repetitive"),
    (0, "teaching", "u-alice", "2024-02-20T07:00:00+00:00", "repetitive"),
)

B1, AB, URI, Z9 = "tab:b1", "tab:a\\:b", "https://example.org/doc", "ft:z9"


def _record(code: DocumentCode) -> GenericRecord:
    return GenericRecord(document_code=code, media_class=MediaClass.TEXT,
                         text=TextDescriptor(title=str(code)))


def _store(codes, users, events) -> CatalogStore:
    store = CatalogStore()
    for code in codes:
        store.put_record(_record(code))
    for user_id, social in users:
        store.register_user(UserProfile(user_id=user_id, name=user_id.upper(),
                                        social_class=social))
    for code, context, user_id, when, use_type in events:
        store.record_usage(UsageEvent(document_code=code, context=context, user_id=user_id,
                                      timestamp=when, use_type=use_type))
    return store


def _hand_store() -> CatalogStore:
    return _store(CODES, USERS, [
        (CODES[i], context, user, datetime.fromisoformat(when), use_type)
        for i, context, user, when, use_type in EVENTS])


def _generated_store(seed: int = 9) -> CatalogStore:
    """About 1.5k events over two years, with the shape of the hand catalog."""
    rng = random.Random(seed)
    codes = [DocumentCode.compound(source, f"{prefix}{i}")
             for source, prefix in (("tab", "r"), ("ft", "f:"), ("line", "L\\"))
             for i in range(12)]
    codes += [DocumentCode.for_uri(f"https://example.org/d/{i}") for i in range(6)]
    users = [(f"u{i:03d}", rng.choice(("student", "teacher", "researcher", None)))
             for i in range(30)]
    contexts = ["teaching", "learning", "documentation", "entertainment",
                "zz-dyn", "mm-dyn", "aa-dyn", "Upper-dyn"]
    start = datetime(2023, 1, 1, tzinfo=timezone.utc)
    events = []
    for offset in sorted(rng.randrange(730 * 86400) for _ in range(1500)):
        events.append((rng.choice(codes), rng.choice(contexts), rng.choice(users[:-1])[0],
                       start + timedelta(seconds=offset),
                       rng.choice(("repetitive", "occasional"))))
    return _store(codes, users, events)


@pytest.fixture(params=["written", "reloaded"])
def reload(request, tmp_path):
    """Turns a store into a snapshot, directly or through save and load."""
    def snapshot_of(store: CatalogStore):
        if request.param == "written":
            return store.snapshot()
        path = tmp_path / "catalog.jsonl"
        store.save(path)
        return CatalogStore.load(path).snapshot()
    return snapshot_of


def _query(snapshot, granularity="day", **fixed):
    if "document" in fixed:
        fixed["document"] = parse_document_code(fixed["document"])
    return cube_query(snapshot, CubeQuery(fixed=DimensionFilter(**fixed),
                                          time_granularity=granularity))


def _cells(result):
    return [(cell.key, cell.event_ids) for cell in result.cells]


# -- the catalog's shape ------------------------------------------------------------


def test_hand_catalog_has_the_intended_shape(reload):
    snapshot = reload(_hand_store())
    labels = [c.label for c in snapshot.contexts]
    assert labels[4:] == ["zeta-lab", "alpha-club"]  # registry order, not alphabetical
    assert sorted(snapshot.record_by_code) == [Z9, URI, "line:M-1", AB, B1]
    assert snapshot.event_codes == (B1, AB, URI, B1, Z9, B1, AB, B1, B1)
    assert snapshot.event_days[1:3] == ("2023-12-31", "2023-12-31")


# -- the cube: oracle, hand counts, ordering ------------------------------------------


def _candidates(snapshot) -> dict:
    return {
        "document": sorted(snapshot.record_by_code),
        "context": sorted(snapshot.context_labels),
        "user": [u.user_id for u in snapshot.users],
        "time": [date(2023, 12, 31), date(2024, 1, 1), date(2024, 2, 15),
                 (datetime(2023, 12, 31, 23, 30, tzinfo=timezone.utc),
                  datetime(2024, 1, 1, tzinfo=timezone.utc))],
    }


def test_all_patterns_match_the_oracle_on_the_hand_catalog(reload):
    snapshot = reload(_hand_store())
    candidates = _candidates(snapshot)
    for dims, granularity in product(all_dimension_subsets(), GRANULARITIES):
        for values in product(*(candidates[d] for d in dims)):
            result = assert_cube_matches_oracle(snapshot, dict(zip(dims, values)),
                                                granularity)
            keys = [cell.key for cell in result.cells]
            assert keys == sorted(keys)


def test_all_patterns_match_the_oracle_on_a_generated_catalog(reload):
    snapshot = reload(_generated_store())
    rng = random.Random(4)
    for dims, granularity in product(all_dimension_subsets(), GRANULARITIES):
        for _ in range(4):
            event = rng.choice(snapshot.events)
            day = event.timestamp.date()
            values = {"document": str(event.document_code), "context": event.context,
                      "user": event.user_id,
                      "time": day if rng.random() < 0.5 else (
                          event.timestamp, event.timestamp + timedelta(days=40))}
            result = assert_cube_matches_oracle(snapshot, {d: values[d] for d in dims},
                                                granularity)
            keys = [cell.key for cell in result.cells]
            assert keys == sorted(keys)


def test_no_fixed_dimension_at_year_granularity():
    result = _query(_hand_store().snapshot(), "year")
    assert result.pattern == 1
    assert _cells(result) == [
        ((Z9, "learning", "u-carol", "2024"), (5,)),
        ((URI, "teaching", "u-carol", "2023"), (3,)),
        ((AB, "teaching", "u-alice", "2023"), (2,)),
        ((AB, "zeta-lab", "u-bob", "2024"), (7,)),
        ((B1, "alpha-club", "u-bob", "2024"), (4,)),
        ((B1, "teaching", "u-alice", "2024"), (6, 9)),
        ((B1, "zeta-lab", "u-alice", "2023"), (1,)),
        ((B1, "zeta-lab", "u-alice", "2024"), (8,)),
    ]
    assert result.total == 9


def test_fixed_dynamic_context_at_month_granularity():
    result = _query(_hand_store().snapshot(), "month", context="zeta-lab")
    assert result.pattern == 5
    assert _cells(result) == [
        ((AB, "u-bob", "2024-02"), (7,)),
        ((B1, "u-alice", "2023-12"), (1,)),
        ((B1, "u-alice", "2024-02"), (8,)),
    ]


def test_fixed_day_is_the_utc_day():
    snapshot = _hand_store().snapshot()
    # Event 3 happened on 2024-01-01 at +02:00, which is 2023-12-31 in UTC.
    assert _cells(_query(snapshot, time=date(2023, 12, 31))) == [
        ((URI, "teaching", "u-carol"), (3,)),
        ((AB, "teaching", "u-alice"), (2,)),
    ]
    assert _cells(_query(snapshot, time=date(2024, 1, 1))) == [
        ((B1, "alpha-club", "u-bob"), (4,))]


def test_time_range_across_the_year_boundary_is_half_open():
    snapshot = _hand_store().snapshot()
    start = datetime(2023, 12, 31, 23, 30, tzinfo=timezone.utc)
    result = _query(snapshot, "year", time=(start, datetime(2024, 1, 1, tzinfo=timezone.utc)))
    assert result.pattern == 2
    assert [cell.event_ids for cell in result.cells] == [(3,), (2,)]


def test_fixed_escaped_and_uri_codes():
    snapshot = _hand_store().snapshot()
    assert _cells(_query(snapshot, document=AB)) == [
        (("teaching", "u-alice", "2023-12-31"), (2,)),
        (("zeta-lab", "u-bob", "2024-02-15"), (7,)),
    ]
    assert _cells(_query(snapshot, "month", document=URI)) == [
        (("teaching", "u-carol", "2023-12"), (3,))]
    assert _cells(_query(snapshot, "year", document=B1, user="u-alice")) == [
        (("teaching", "2024"), (6, 9)),
        (("zeta-lab", "2023"), (1,)),
        (("zeta-lab", "2024"), (8,)),
    ]


def test_values_without_events_give_empty_results():
    snapshot = _hand_store().snapshot()
    for fixed in ({"user": "u-dave"}, {"context": "documentation"},
                  {"document": "line:M-1"}, {"time": date(2024, 3, 1)}):
        result = _query(snapshot, **fixed)
        assert result.cells == () and result.total == 0


# -- the five reports ---------------------------------------------------------------


def test_reports_on_the_hand_catalog(reload):
    snapshot = reload(_hand_store())
    assert document_importance(snapshot) == [(B1, 5), (AB, 2), (Z9, 1), (URI, 1)]

    alice = user_interest(snapshot, "u-alice")
    assert list(alice.contexts.items()) == [("teaching", 3), ("zeta-lab", 2)]
    assert list(alice.documents.items()) == [(AB, 1), (B1, 4)]
    assert user_interest(snapshot, "u-dave") == ({}, {})

    assert usage_evolution(snapshot, "day") == [
        ("2023-12-30", 1), ("2023-12-31", 2), ("2024-01-01", 1),
        ("2024-01-02", 2), ("2024-02-15", 2), ("2024-02-20", 1)]
    assert usage_evolution(snapshot, "month") == [("2023-12", 3), ("2024-01", 3),
                                                  ("2024-02", 3)]
    assert usage_evolution(snapshot, "year") == [("2023", 3), ("2024", 6)]

    assert usage_type_ratio(snapshot) == (4, 5)

    assert list(context_by_social_class(snapshot).items()) == [
        (("student", "teaching"), 3), (("student", "zeta-lab"), 2),
        (("teacher", "alpha-club"), 1), (("teacher", "zeta-lab"), 1),
        (("unspecified", "learning"), 1), (("unspecified", "teaching"), 1)]


def test_reports_follow_the_oracle_and_their_ordering_rules(reload):
    snapshot = reload(_generated_store())
    _, cells, total = brute_force_cube(snapshot.events, {}, "day")
    social = {u.user_id: u.social_class or "unspecified" for u in snapshot.users}
    by_doc, by_social = Counter(), Counter()
    for (code, context, user_id, _), ids in cells.items():
        by_doc[code] += len(ids)
        by_social[(social[user_id], context)] += len(ids)

    assert document_importance(snapshot) == sorted(by_doc.items(), key=lambda item: (-item[1], item[0]))

    for granularity in GRANULARITIES:
        _, at_granularity, _ = brute_force_cube(snapshot.events, {}, granularity)
        by_label = Counter()
        for key, ids in at_granularity.items():
            by_label[key[3]] += len(ids)
        assert usage_evolution(snapshot, granularity) == sorted(by_label.items())

    table = context_by_social_class(snapshot)
    assert table == dict(sorted(by_social.items()))
    assert list(table) == sorted(table)
    assert any(social_class == "unspecified" for social_class, _ in table)

    for user in snapshot.users:
        _, mine, _ = brute_force_cube(snapshot.events, {"user": user.user_id}, "day")
        contexts, documents = Counter(), Counter()
        for (code, context, _), ids in mine.items():
            contexts[context] += len(ids)
            documents[code] += len(ids)
        interest = user_interest(snapshot, user.user_id)
        assert list(interest.contexts.items()) == sorted(contexts.items())
        assert list(interest.documents.items()) == sorted(documents.items())

    repetitive = sum(1 for e in snapshot.events if e.use_type == "repetitive")
    assert usage_type_ratio(snapshot) == (repetitive, total - repetitive)
