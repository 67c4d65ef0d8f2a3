from __future__ import annotations

import random
from collections import Counter
from datetime import date, datetime, timezone

import pytest

from catalog_fixtures import make_five_event_store
from mediacube.analytics import (
    CubeQuery,
    DimensionFilter,
    InvalidGranularity,
    InvalidTimeRange,
    context_by_social_class,
    cube_query,
    document_importance,
    parse_filter,
    parse_query,
    pattern_id,
    time_bucket,
    usage_evolution,
    usage_type_ratio,
    user_interest,
)
from mediacube.codes import parse_document_code
from mediacube.errors import BadRequest
from mediacube.store import (
    CatalogStore,
    UnknownContext,
    UnknownDocument,
    UnknownUser,
    UsageEvent,
)
from oracle import (
    all_dimension_subsets,
    assert_cube_matches_oracle as assert_matches_oracle,
    dimension_filter_from as make_filter,
    draw_fixed,
    random_store,
)


# -- pattern numbering ---------------------------------------------------------


def test_pattern_id_covers_1_to_16():
    ids = [pattern_id(CubeQuery(fixed=make_filter(draw_fixed(
        random.Random(7), make_five_event_store().snapshot(), dims))))
        for dims in all_dimension_subsets()]
    assert ids == list(range(1, 17))


def test_pattern_id_anchors():
    assert pattern_id(CubeQuery()) == 1
    assert pattern_id(CubeQuery(fixed=DimensionFilter(
        user="u1", time=date(2024, 1, 1)))) == 4
    assert pattern_id(CubeQuery(fixed=DimensionFilter(
        document=parse_document_code("fx:d1"), context="teaching",
        user="u1", time=date(2024, 1, 2)))) == 16


# -- fixture-derived values ------------------------------------------------------


def test_empty_snapshot_any_query():
    from mediacube.store import CatalogStore
    result = cube_query(CatalogStore().snapshot(), CubeQuery())
    assert result.cells == () and result.total == 0


def test_fixture_context_teaching_pattern5(five_event_store):
    snapshot = five_event_store.snapshot()
    result = assert_matches_oracle(snapshot, {"context": "teaching"})
    assert result.pattern == 5
    assert result.free_dimensions == ("document", "user", "time")
    assert [(c.key, c.count) for c in result.cells] == [
        (("fx:d1", "u1", "2024-01-01"), 1),
        (("fx:d1", "u1", "2024-01-02"), 1),
        (("fx:d2", "u1", "2024-01-02"), 1),
    ]
    assert result.total == 3


def test_fixture_all_fixed_pattern16(five_event_store):
    snapshot = five_event_store.snapshot()
    fixed = {"document": "fx:d1", "context": "teaching", "user": "u1",
             "time": date(2024, 1, 2)}
    result = assert_matches_oracle(snapshot, fixed)
    assert result.pattern == 16
    assert len(result.cells) == 1
    assert result.cells[0].count == 1
    assert result.total == 1


def test_fixture_time_range_is_half_open(five_event_store):
    snapshot = five_event_store.snapshot()
    start = datetime(2024, 1, 1, tzinfo=timezone.utc)
    mid = datetime(2024, 1, 2, 9, 0, 0, tzinfo=timezone.utc)
    result = cube_query(snapshot, CubeQuery(fixed=DimensionFilter(time=(start, mid))))
    # E3 sits exactly on the end instant and is excluded.
    assert result.total == 2


def test_unknown_fixed_values_rejected(five_event_store):
    snapshot = five_event_store.snapshot()
    with pytest.raises(UnknownDocument):
        cube_query(snapshot, CubeQuery(fixed=make_filter({"document": "fx:ghost"})))
    with pytest.raises(UnknownUser):
        cube_query(snapshot, CubeQuery(fixed=DimensionFilter(user="u9")))
    with pytest.raises(UnknownContext):
        cube_query(snapshot, CubeQuery(fixed=DimensionFilter(context="gaming")))


def test_invalid_time_range_rejected(five_event_store):
    instant = datetime(2024, 1, 1, tzinfo=timezone.utc)
    with pytest.raises(InvalidTimeRange):
        cube_query(five_event_store.snapshot(),
                   CubeQuery(fixed=DimensionFilter(time=(instant, instant))))


@pytest.mark.parametrize("time", [
    "2024-01-01",
    5,
    datetime(2024, 1, 1, 9, tzinfo=timezone.utc),  # a datetime is a date, but not a day
    (date(2024, 1, 1), date(2024, 1, 2)),
], ids=["text", "number", "datetime", "pair-of-dates"])
def test_a_filter_time_that_is_neither_a_day_nor_a_range_is_refused(time):
    with pytest.raises(InvalidTimeRange, match="time must be a date or a pair of datetimes"):
        DimensionFilter(time=time)


def test_invalid_granularity_rejected(five_event_store):
    with pytest.raises(InvalidGranularity):
        cube_query(five_event_store.snapshot(), CubeQuery(time_granularity="week"))


def test_time_buckets():
    ts = datetime(2024, 1, 2, 9, 30, 0, tzinfo=timezone.utc)
    assert time_bucket(ts, "day") == "2024-01-02"
    assert time_bucket(ts, "month") == "2024-01"
    assert time_bucket(ts, "year") == "2024"


def test_time_buckets_before_year_1000_are_zero_padded_and_sort_first(five_event_store):
    ts = datetime(999, 3, 4, tzinfo=timezone.utc)
    assert time_bucket(ts, "day") == "0999-03-04"
    assert time_bucket(ts, "month") == "0999-03"
    assert time_bucket(ts, "year") == "0999"
    five_event_store.record_usage(UsageEvent(
        document_code=parse_document_code("fx:d1"), context="teaching", user_id="u1",
        timestamp=ts, use_type="occasional"))
    snapshot = five_event_store.snapshot()
    assert usage_evolution(snapshot, "year") == [("0999", 1), ("2024", 5)]
    assert [c.key for c in cube_query(snapshot, CubeQuery(
        fixed=DimensionFilter(context="teaching"), time_granularity="year")).cells] == [
        ("fx:d1", "u1", "0999"), ("fx:d1", "u1", "2024"), ("fx:d2", "u1", "2024")]


def test_usage_evolution_checks_granularity_before_grouping(five_event_store):
    for snapshot in (CatalogStore().snapshot(), five_event_store.snapshot()):
        with pytest.raises(InvalidGranularity):
            usage_evolution(snapshot, "week")


# -- randomized oracle equivalence -------------------------------------------------


def test_cube_matches_oracle_on_random_catalogs():
    rng = random.Random(1405)
    for _ in range(10):
        snapshot = random_store(rng, max_events=300).snapshot()
        for dims in all_dimension_subsets():
            fixed = draw_fixed(rng, snapshot, dims)
            granularity = rng.choice(("day", "month", "year"))
            assert_matches_oracle(snapshot, fixed, granularity)


def test_roll_up_conservation_small():
    rng = random.Random(77)
    snapshot = random_store(rng, max_docs=10, max_users=5, max_events=200).snapshot()
    for dims in all_dimension_subsets():
        fixed = draw_fixed(rng, snapshot, dims)
        parent = cube_query(snapshot, CubeQuery(fixed=make_filter(fixed)))
        for free_dim in parent.free_dimensions:
            position = parent.free_dimensions.index(free_dim)
            observed = sorted({c.key[position] for c in parent.cells})
            child_total = 0
            for value in observed:
                child_fixed = dict(fixed)
                child_fixed[free_dim] = (
                    date.fromisoformat(value) if free_dim == "time" else value)
                child = cube_query(snapshot, CubeQuery(fixed=make_filter(child_fixed)))
                child_total += child.total
            assert child_total == parent.total


def test_identical_queries_identical_results(five_event_store):
    snapshot = five_event_store.snapshot()
    query = CubeQuery(fixed=DimensionFilter(context="teaching"))
    assert cube_query(snapshot, query) == cube_query(snapshot, query)


def test_tsv_rendering(five_event_store):
    result = cube_query(five_event_store.snapshot(),
                        CubeQuery(fixed=DimensionFilter(context="teaching")))
    lines = result.to_tsv().splitlines()
    assert lines[0] == "document\tuser\ttime\tcount"
    assert lines[1] == "fx:d1\tu1\t2024-01-01\t1"
    assert lines[-1] == "TOTAL\t3"


# -- derived reports ------------------------------------------------------------


def test_document_importance_fixture(five_event_store):
    assert document_importance(five_event_store.snapshot()) == [
        ("fx:d1", 3), ("fx:d2", 2)]


def test_document_importance_empty():
    from mediacube.store import CatalogStore
    assert document_importance(CatalogStore().snapshot()) == []


def test_user_interest_fixture(five_event_store):
    snapshot = five_event_store.snapshot()
    interest = user_interest(snapshot, "u1")
    assert interest.contexts == {"teaching": 3}
    assert interest.documents == {"fx:d1": 2, "fx:d2": 1}
    assert user_interest(snapshot, "u2").contexts == {"learning": 2}
    with pytest.raises(UnknownUser):
        user_interest(snapshot, "u9")


def test_usage_evolution_fixture(five_event_store):
    snapshot = five_event_store.snapshot()
    assert usage_evolution(snapshot, "day") == [("2024-01-01", 2), ("2024-01-02", 3)]
    assert usage_evolution(snapshot, "month") == [("2024-01", 5)]


def test_usage_type_ratio_fixture(five_event_store):
    ratio = usage_type_ratio(five_event_store.snapshot())
    assert ratio == (2, 3)
    assert ratio.repetitive + ratio.occasional == 5


def test_context_by_social_class_fixture(five_event_store):
    table = context_by_social_class(five_event_store.snapshot())
    assert table == {("student", "teaching"): 3, ("unspecified", "learning"): 2}


def test_reports_agree_with_cube_reexpression():
    rng = random.Random(99)
    for _ in range(5):
        snapshot = random_store(rng, max_events=300).snapshot()
        base = cube_query(snapshot, CubeQuery())
        dims = base.free_dimensions

        by_doc: Counter[str] = Counter()
        by_time: Counter[str] = Counter()
        by_social: Counter[tuple[str, str]] = Counter()
        for cell in base.cells:
            values = dict(zip(dims, cell.key))
            by_doc[values["document"]] += cell.count
            by_time[values["time"]] += cell.count
            profile = snapshot.user_by_id[values["user"]]
            social = profile.social_class or "unspecified"
            by_social[(social, values["context"])] += cell.count

        assert document_importance(snapshot) == sorted(
            by_doc.items(), key=lambda item: (-item[1], item[0]))
        assert usage_evolution(snapshot, "day") == sorted(by_time.items())
        assert context_by_social_class(snapshot) == dict(sorted(by_social.items()))

        ratio = usage_type_ratio(snapshot)
        assert ratio.repetitive + ratio.occasional == base.total

        if snapshot.users:
            user_id = rng.choice(snapshot.users).user_id
            fixed_user = cube_query(
                snapshot, CubeQuery(fixed=DimensionFilter(user=user_id)))
            contexts: Counter[str] = Counter()
            documents: Counter[str] = Counter()
            for cell in fixed_user.cells:
                values = dict(zip(fixed_user.free_dimensions, cell.key))
                contexts[values["context"]] += cell.count
                documents[values["document"]] += cell.count
            interest = user_interest(snapshot, user_id)
            assert interest.contexts == dict(sorted(contexts.items()))
            assert interest.documents == dict(sorted(documents.items()))


# -- the shared filter parser --------------------------------------------------


def test_parse_filter_builds_every_dimension():
    assert parse_filter({}) == DimensionFilter()
    assert parse_filter({"doc": "fx:d1", "context": "teaching", "user": "u1",
                         "time": "2024-01-02"}) == DimensionFilter(
        document=parse_document_code("fx:d1"), context="teaching", user="u1",
        time=date(2024, 1, 2))
    start, end = datetime(2024, 1, 1, tzinfo=timezone.utc), datetime(2024, 1, 2, tzinfo=timezone.utc)
    assert parse_filter({"time": "2024-01-01T00:00:00Z/2024-01-02T00:00:00Z"}).time == (start, end)


@pytest.mark.parametrize("fields, message", [
    ({"colour": "red"}, "colour"),
    ({"granularity": "day"}, "granularity"),
    ({"context": ""}, "non-empty"),
    ({"time": "2024-13-01"}, "YYYY-MM-DD"),
    ({"time": "2024-01-01T00:00:00Z/"}, "YYYY-MM-DD"),
    ({"doc": "NoSeparatorNoScheme"}, "doc:"),
    ({"time": "2024-W01-1"}, "YYYY-MM-DD"),
    ({"time": "20240101"}, "YYYY-MM-DD"),
    ({"time": "2024-01-01/2024-01-02"}, "YYYY-MM-DD"),
    ({"time": "2024-01-01T00:00:00+00:00/2024-01-02T00:00:00Z"}, "YYYY-MM-DD"),
    ({"time": "2024-01-0\u0661"}, "YYYY-MM-DD"),  # ARABIC-INDIC DIGIT ONE
])
def test_parse_filter_rejects_bad_input(fields, message):
    with pytest.raises(BadRequest, match=message):
        parse_filter(fields)


def test_parse_query_reads_granularity_and_refuses_a_repeated_name():
    assert parse_query([]) == CubeQuery()
    assert parse_query([("user", "u1"), ("granularity", "month")]) == CubeQuery(
        fixed=DimensionFilter(user="u1"), time_granularity="month")
    for pairs in ([("user", "u1"), ("user", "u1")], [("granularity", "day")] * 2):
        with pytest.raises(BadRequest, match="given more than once"):
            parse_query(pairs)


# -- the sort-once cell engine -------------------------------------------------


@pytest.mark.parametrize("granularity", ["month", "year"])
def test_cell_event_ids_ascend_when_timestamps_run_against_id_order(five_event_store,
                                                                     granularity):
    # Later ids get earlier instants, so a cell spanning several days holds them backwards in time.
    for day in ("2025-03-28", "2025-03-20", "2025-03-09", "2025-03-01"):
        five_event_store.record_usage(UsageEvent(
            document_code=parse_document_code("fx:d2"), context="teaching", user_id="u1",
            timestamp=datetime.fromisoformat(day).replace(tzinfo=timezone.utc),
            use_type="occasional"))
    snapshot = five_event_store.snapshot()
    for fixed in (DimensionFilter(), DimensionFilter(context="teaching"),
                  DimensionFilter(document=parse_document_code("fx:d2"))):
        cells = cube_query(snapshot, CubeQuery(fixed, granularity)).cells
        assert all(list(c.event_ids) == sorted(c.event_ids) for c in cells)
        assert (6, 7, 8, 9) in {c.event_ids for c in cells}


def test_pattern_16_gives_one_empty_keyed_cell_or_none(five_event_store):
    snapshot = five_event_store.snapshot()
    def query(context, day):
        return cube_query(snapshot, CubeQuery(DimensionFilter(
            document=parse_document_code("fx:d1"), context=context, user="u1", time=day)))
    matching = query("teaching", date(2024, 1, 2))
    assert (matching.pattern, matching.free_dimensions) == (16, ())
    assert matching.cells == (((), 1, (4,)),) and matching.total == 1
    for context, day in (("learning", date(2024, 1, 2)), ("teaching", date(2024, 1, 3))):
        empty = query(context, day)
        assert (empty.pattern, empty.cells, empty.total) == (16, (), 0)


def test_a_cell_is_a_plain_tuple_of_key_count_and_ids(five_event_store):
    cells = cube_query(five_event_store.snapshot(), CubeQuery()).cells
    assert cells
    for cell in cells:
        assert cell == (cell.key, cell.count, cell.event_ids)
        assert type(cell.event_ids) is tuple and cell.count == len(cell.event_ids)
