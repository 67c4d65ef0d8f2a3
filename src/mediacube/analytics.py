"""Four-dimensional usage analytics over catalog snapshots.

Every query fixes a subset of the dimensions Document, Context, User, Time
and aggregates event counts over the free ones. The sixteen fix/aggregate
combinations are numbered 1..16; derived reports (document importance,
user interest, usage evolution, use-type ratio, social-class cross-tab)
are re-groupings of the same cube.

All operations are pure functions over an immutable snapshot and return
deterministically ordered results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, timezone
from itertools import chain, compress, pairwise, repeat
from operator import ne
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .codes import DocumentCode, MalformedCode, parse_document_code
from .errors import BadRequest, MediaCubeError, NotFound
from .store import (
    DAY_PATTERN,
    INSTANT_PATTERN,
    CatalogSnapshot,
    UnknownContext,
    UnknownDocument,
    UnknownUser,
    normalize_timestamp,
    parse_timestamp,
)

DIMENSIONS = ("document", "context", "user", "time")
GRANULARITIES = ("day", "month", "year")
#: Filter input names (CLI ``--fix DIM=VALUE``, HTTP query) -> dimensions.
FILTER_NAMES = {"doc": "document", "context": "context", "user": "user", "time": "time"}
TIME_GRAMMAR = '"YYYY-MM-DD" or "YYYY-MM-DDThh:mm:ssZ/YYYY-MM-DDThh:mm:ssZ"'


class InvalidTimeRange(MediaCubeError):
    pass


class InvalidGranularity(MediaCubeError):
    pass


@dataclass(frozen=True)
class DimensionFilter:
    """A partial fixing of the four dimensions.

    ``time`` is either an exact UTC day, a ``date`` that is not a ``datetime``,
    or a half-open instant range ``(start, end)`` of two datetimes; any
    other value raises :class:`InvalidTimeRange`.
    """

    document: DocumentCode | None = None
    context: str | None = None
    user: str | None = None
    time: date | tuple[datetime, datetime] | None = None

    def __post_init__(self):
        time = self.time
        if (isinstance(time, tuple) and len(time) == 2
                and all(isinstance(instant, datetime) for instant in time)):
            object.__setattr__(self, "time", tuple(map(normalize_timestamp, time)))
        elif time is not None and (not isinstance(time, date) or isinstance(time, datetime)):
            raise InvalidTimeRange(f"time must be a date or a pair of datetimes, got {time!r}")

    def fixed_dimensions(self) -> tuple[str, ...]:
        return tuple(d for d in DIMENSIONS if getattr(self, d) is not None)


def parse_filter(fields: Mapping[str, str]) -> DimensionFilter:
    """Build a filter from the text of ``doc``, ``context``, ``user`` and ``time``.

    The one parser of filter input; :func:`parse_query` calls it for the CLI and
    the HTTP service. A time is a day (``store.DAY_PATTERN``) or a half-open range
    of two instants (``store.INSTANT_PATTERN``), each matched in full. An unknown
    name, an empty value, other time text (:data:`TIME_GRAMMAR`), a day or instant
    that does not exist, or a doc code that does not parse raises :class:`BadRequest`.
    """
    fixed: dict[str, object] = {}
    for name, text in fields.items():
        if name not in FILTER_NAMES:
            raise BadRequest(f"dimension must be one of {', '.join(FILTER_NAMES)}, got {name!r}")
        if not text:
            raise BadRequest(f"{name} needs a non-empty value")
        if name == "doc":
            try:
                fixed["document"] = parse_document_code(text)
            except MalformedCode as exc:
                raise BadRequest(f"doc: {exc}") from None
        elif name == "time":
            instants = text.split("/")
            try:
                if DAY_PATTERN.fullmatch(text):
                    fixed["time"] = date.fromisoformat(text)
                elif len(instants) == 2 and all(map(INSTANT_PATTERN.fullmatch, instants)):
                    fixed["time"] = tuple(map(parse_timestamp, instants))
                else:
                    raise ValueError(text)
            except ValueError:
                raise BadRequest(f"time expects {TIME_GRAMMAR}, got {text!r}") from None
        else:
            fixed[name] = text
    return DimensionFilter(**fixed)


@dataclass(frozen=True)
class CubeQuery:
    fixed: DimensionFilter = DimensionFilter()
    time_granularity: str = "day"


def _fields(pairs: Iterable[tuple[str, str]]) -> dict[str, str]:
    """The ``(name, text)`` pairs of a request as a front end receives them, by name;
    a name given twice raises :class:`BadRequest`."""
    fields: dict[str, str] = {}
    for name, text in pairs:
        if name in fields:
            raise BadRequest(f"{name} is given more than once")
        fields[name] = text
    return fields


def parse_query(pairs: Iterable[tuple[str, str]]) -> CubeQuery:
    """The one parser of a cube request, from its ``(name, text)`` pairs (:func:`_fields`).
    ``granularity`` defaults to ``day``, and the other names go to :func:`parse_filter`."""
    fields = _fields(pairs)
    granularity = fields.pop("granularity", "day")
    return CubeQuery(fixed=parse_filter(fields), time_granularity=granularity)


class CubeCell(NamedTuple):
    """One group: free-dimension values, its count, and the contributing events."""

    key: tuple[str, ...]
    count: int
    event_ids: tuple[int, ...]


@dataclass(frozen=True)
class CubeResult:
    pattern: int
    free_dimensions: tuple[str, ...]
    cells: tuple[CubeCell, ...]
    total: int

    def to_tsv(self) -> str:
        """Tab-separated table: free-dimension header, one row per cell, TOTAL."""
        lines = ["\t".join(self.free_dimensions + ("count",))]
        for cell in self.cells:
            lines.append("\t".join(cell.key + (str(cell.count),)))
        lines.append(f"TOTAL\t{self.total}")
        return "\n".join(lines) + "\n"


def pattern_id(query: CubeQuery) -> int:
    """Row number (1..16) of the query's fix/aggregate combination."""
    fixed = query.fixed.fixed_dimensions()
    return (1
            + 8 * ("document" in fixed)
            + 4 * ("context" in fixed)
            + 2 * ("user" in fixed)
            + 1 * ("time" in fixed))


# Length of a day label's prefix that names each bucket: YYYY-MM-DD, YYYY-MM, YYYY.
_LABEL_WIDTH = {"day": 10, "month": 7, "year": 4}


def check_granularity(granularity: str) -> None:
    if granularity not in GRANULARITIES:
        raise InvalidGranularity(f"granularity must be one of {GRANULARITIES}, got {granularity!r}")


def time_bucket(timestamp: datetime, granularity: str) -> str:
    """Bucket label of a UTC instant at day, month, or year granularity."""
    check_granularity(granularity)
    label = timestamp.astimezone(timezone.utc).date().isoformat()
    return label[:_LABEL_WIDTH[granularity]]


def _check_fixed(snapshot: CatalogSnapshot, fixed: DimensionFilter) -> None:
    if fixed.document is not None and str(fixed.document) not in snapshot.record_by_code:
        raise UnknownDocument(f"no record for {fixed.document}")
    if fixed.context is not None and fixed.context not in snapshot.context_labels:
        raise UnknownContext(f"context {fixed.context!r} not in the registry")
    if fixed.user is not None and fixed.user not in snapshot.user_by_id:
        raise UnknownUser(f"user {fixed.user!r} is not registered")
    if isinstance(fixed.time, tuple):
        start, end = fixed.time
        if not start < end:
            raise InvalidTimeRange(f"empty time range [{start}, {end})")


def _select(snapshot: CatalogSnapshot, fixed: DimensionFilter, keys: tuple[str, ...],
            granularity: str = "day") -> tuple[Iterator[tuple[str, ...]], Sequence[int]]:
    """The key tuples and the rows of the events matching ``fixed``, both in row order.

    ``keys`` names snapshot columns: the four dimensions and ``use_type``. A time key is
    the day label cut to ``granularity``. The rows are those of the shortest posting of a
    fixed value that hold the other fixed values and fall in the time range.
    """
    check_granularity(granularity)
    _check_fixed(snapshot, fixed)
    wanted = {d: str(getattr(fixed, d)) for d in ("document", "context", "user")
              if getattr(fixed, d) is not None}
    if isinstance(fixed.time, date):
        wanted["time"] = fixed.time.isoformat()

    rows: Sequence[int] = range(snapshot.rows)
    def pick(name):  # column ``name``'s values at ``rows``, in row order
        column = snapshot.column(name)
        return column if isinstance(rows, range) else map(column.__getitem__, rows)
    postings = ((snapshot.event_rows(d, v), d, v) for d, v in wanted.items())
    for posting, name, value in sorted(postings, key=lambda posting: len(posting[0])):
        rows = posting if isinstance(rows, range) else [
            i for i, held in zip(rows, pick(name)) if held == value]
    if isinstance(fixed.time, tuple):
        start, end = (instant.timestamp() for instant in fixed.time)  # exact: whole seconds
        rows = [i for i, seconds in zip(rows, pick("seconds")) if start <= seconds < end]

    width = _LABEL_WIDTH[granularity]
    def buckets(days):  # day labels cut to their buckets, each distinct day once
        return map({day: day[:width] for day in set(days)}.__getitem__, days)
    values = [buckets(list(pick(k))) if k == "time" and granularity != "day" else pick(k)
              for k in keys]
    return zip(*values) if values else repeat((), len(rows)), rows


def cube_query(snapshot: CatalogSnapshot, query: CubeQuery) -> CubeResult:
    """Group the events matching the fixed dimensions by the free ones.

    Equivalent to filtering the event list and counting per group; empty groups are
    omitted, cells come sorted by key, and each cell retains the contributing event ids
    in event order: one stable sort of the matching rows by key, sliced where it changes.
    """
    free = tuple(d for d in DIMENSIONS if d not in query.fixed.fixed_dimensions())
    keys, rows = _select(snapshot, query.fixed, free, query.time_granularity)
    keys = list(keys)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ids = tuple(map(snapshot.column("id").__getitem__, map(rows.__getitem__, order)))
    keys = list(map(keys.__getitem__, order))
    del order  # before the cells are built: it is as long as the matching rows
    starts = compress(range(len(keys)), map(ne, keys, chain([None], keys)))  # key changes
    cells = tuple(CubeCell(keys[start], end - start, ids[start:end])
                  for start, end in pairwise(chain(starts, [len(keys)])))
    return CubeResult(
        pattern=pattern_id(query),
        free_dimensions=free,
        cells=cells,
        total=len(ids),
    )


# ---------------------------------------------------------------------------
# Derived reports
# ---------------------------------------------------------------------------


class UserInterest(NamedTuple):
    contexts: dict[str, int]
    documents: dict[str, int]


class UseTypeCounts(NamedTuple):
    repetitive: int
    occasional: int


def _counts(snapshot: CatalogSnapshot, keys: tuple[str, ...],
            fixed: DimensionFilter = DimensionFilter(), granularity: str = "day"):
    return sorted(Counter(_select(snapshot, fixed, keys, granularity)[0]).items())


def document_importance(snapshot: CatalogSnapshot) -> list[tuple[str, int]]:
    """Documents ranked by total usage, count descending, code ascending."""
    by_code = [(code, n) for (code,), n in _counts(snapshot, ("document",))]
    return sorted(by_code, key=lambda item: -item[1])  # stable: ties keep code order


def user_interest(snapshot: CatalogSnapshot, user_id: str) -> UserInterest:
    """Per-context and per-document usage counts for one user."""
    mine = DimensionFilter(user=user_id)
    return UserInterest(
        contexts={context: n for (context,), n in _counts(snapshot, ("context",), mine)},
        documents={code: n for (code,), n in _counts(snapshot, ("document",), mine)},
    )


def usage_evolution(snapshot: CatalogSnapshot, granularity: str = "day") -> list[tuple[str, int]]:
    """Event counts per time bucket, ascending; empty buckets omitted."""
    return [(label, n) for (label,), n in _counts(snapshot, ("time",), granularity=granularity)]


def usage_type_ratio(snapshot: CatalogSnapshot) -> UseTypeCounts:
    """How often documents were used repetitively versus occasionally."""
    counts = {use_type: n for (use_type,), n in _counts(snapshot, ("use_type",))}
    return UseTypeCounts(repetitive=counts.get("repetitive", 0),
                         occasional=counts.get("occasional", 0))


def context_by_social_class(snapshot: CatalogSnapshot) -> dict[tuple[str, str], int]:
    """Cross-tab of (social class, context) event counts.

    Users without a social class count under ``"unspecified"``.
    """
    counts: Counter[tuple[str, str]] = Counter()
    for (user_id, context), n in _counts(snapshot, ("user", "context")):
        counts[(snapshot.user_by_id[user_id].social_class or "unspecified", context)] += n
    return dict(sorted(counts.items()))


#: Report name -> its rows from ``(snapshot, user, granularity)``, each the fields of one
#: CLI output line. Each report function is looked up when it runs, never at import.
REPORTS = {
    "importance": lambda snapshot, user, granularity: document_importance(snapshot),
    "interest": lambda snapshot, user, granularity: [
        (dimension, key, n) for dimension, counts in zip(("context", "document"),
                                                         user_interest(snapshot, user))
        for key, n in counts.items()],
    "evolution": lambda snapshot, user, granularity: usage_evolution(snapshot, granularity),
    "type-ratio": lambda snapshot, user, granularity: list(
        zip(UseTypeCounts._fields, usage_type_ratio(snapshot))),
    "social-class": lambda snapshot, user, granularity: [
        (*key, n) for key, n in context_by_social_class(snapshot).items()],
}


def run_report(snapshot: CatalogSnapshot, name: str,
               pairs: Iterable[tuple[str, str]]) -> list[tuple]:
    """Rows of report ``name`` (:data:`REPORTS`) from the ``(name, text)`` pairs of a CLI or
    HTTP request. Only ``user`` and ``granularity`` are taken, each once; ``interest`` needs
    a non-empty ``user``, and every report checks ``granularity`` (default ``day``)."""
    if name not in REPORTS:
        raise NotFound(f"report must be one of {', '.join(REPORTS)}, got {name!r}")
    fields = _fields(pairs)
    user, granularity = fields.pop("user", None), fields.pop("granularity", "day")
    if fields:
        raise BadRequest(f"a report takes only user and granularity, got {min(fields)!r}")
    check_granularity(granularity)
    if name == "interest" and not user:
        raise BadRequest("report interest needs a non-empty user")
    return REPORTS[name](snapshot, user, granularity)
