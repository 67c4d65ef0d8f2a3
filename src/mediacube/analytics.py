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
from itertools import compress, repeat
from operator import itemgetter
from typing import Iterator, Mapping, NamedTuple

from .codes import DocumentCode, MalformedCode, parse_document_code
from .errors import BadRequest, MediaCubeError
from .store import (
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

    ``time`` is either an exact UTC day or a half-open instant range
    ``(start, end)``.
    """

    document: DocumentCode | None = None
    context: str | None = None
    user: str | None = None
    time: date | tuple[datetime, datetime] | None = None

    def __post_init__(self):
        if isinstance(self.time, tuple):
            start, end = self.time
            object.__setattr__(self, "time",
                               (normalize_timestamp(start), normalize_timestamp(end)))

    def fixed_dimensions(self) -> tuple[str, ...]:
        return tuple(d for d in DIMENSIONS if getattr(self, d) is not None)


def parse_filter(fields: Mapping[str, str]) -> DimensionFilter:
    """Build a filter from the text of ``doc``, ``context``, ``user`` and ``time``.

    The one parser of filter input, shared by the CLI and the HTTP service.
    A time is a day or a half-open instant range (:data:`TIME_GRAMMAR`). An
    unknown name, an empty value, a malformed time or a doc code that does
    not parse raises :class:`BadRequest`.
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
            start_text, sep, end_text = text.partition("/")
            try:
                if sep:
                    fixed["time"] = (parse_timestamp(start_text), parse_timestamp(end_text))
                else:
                    fixed["time"] = date.fromisoformat(text)
            except ValueError:
                raise BadRequest(f"time expects {TIME_GRAMMAR}, got {text!r}") from None
        else:
            fixed[name] = text
    return DimensionFilter(**fixed)


@dataclass(frozen=True)
class CubeQuery:
    fixed: DimensionFilter = DimensionFilter()
    time_granularity: str = "day"


@dataclass(frozen=True, slots=True)
class CubeCell:
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


def _check_granularity(granularity: str) -> None:
    if granularity not in GRANULARITIES:
        raise InvalidGranularity(f"granularity must be one of {GRANULARITIES}, got {granularity!r}")


def time_bucket(timestamp: datetime, granularity: str) -> str:
    """Bucket label of a UTC instant at day, month, or year granularity."""
    _check_granularity(granularity)
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


def _group(snapshot: CatalogSnapshot, fixed: DimensionFilter, keys: tuple[str, ...],
           granularity: str = "day") -> Iterator[tuple[tuple[str, ...], list[int]]]:
    """Ids of the events matching ``fixed``, grouped by ``keys``, sorted by key.

    ``keys`` names snapshot columns: the four dimensions and ``use_type``.
    A time key is the day label cut to ``granularity``. Empty groups are
    omitted; each group lists its event ids in event order.
    """
    _check_granularity(granularity)
    _check_fixed(snapshot, fixed)
    columns = {"document": snapshot.event_codes, "context": snapshot.event_contexts,
               "user": snapshot.event_users, "time": snapshot.event_days,
               "use_type": snapshot.event_use_types}
    wanted = [(columns[d], str(getattr(fixed, d))) for d in ("document", "context", "user")
              if getattr(fixed, d) is not None]
    if isinstance(fixed.time, date):
        wanted.append((columns["time"], fixed.time.isoformat()))

    rows: range | list[int] = range(len(snapshot.event_ids))
    def pick(column):  # the column's values at ``rows``, in row order
        return column if isinstance(rows, range) else map(column.__getitem__, rows)
    for column, value in wanted:
        rows = list(compress(rows, map(value.__eq__, pick(column))))
    if isinstance(fixed.time, tuple):
        start, end = (instant.timestamp() for instant in fixed.time)  # exact: whole seconds
        rows = [i for i in rows if start <= snapshot.event_seconds[i] < end]

    label = itemgetter(slice(_LABEL_WIDTH[granularity]))  # day label -> bucket label
    values = [map(label, pick(columns[k])) if k == "time" else pick(columns[k]) for k in keys]
    groups: dict[tuple[str, ...], list[int]] = {}
    for key, event_id in zip(zip(*values) if values else repeat((), len(rows)),
                             pick(snapshot.event_ids)):
        members = groups.get(key)
        if members is None:
            groups[key] = [event_id]
        else:
            members.append(event_id)
    # Popping frees each list as soon as the caller has consumed it.
    return ((key, groups.pop(key)) for key in sorted(groups))


def cube_query(snapshot: CatalogSnapshot, query: CubeQuery) -> CubeResult:
    """Group the events matching the fixed dimensions by the free ones.

    Equivalent to filtering the event list and counting per group; empty
    groups are omitted, cells come sorted by key, and each cell retains
    the contributing event ids.
    """
    free = tuple(d for d in DIMENSIONS if d not in query.fixed.fixed_dimensions())
    cells = tuple(CubeCell(key, len(ids), tuple(ids))
                  for key, ids in _group(snapshot, query.fixed, free, query.time_granularity))
    return CubeResult(
        pattern=pattern_id(query),
        free_dimensions=free,
        cells=cells,
        total=sum(cell.count for cell in cells),
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
    return [(key, len(ids)) for key, ids in _group(snapshot, fixed, keys, granularity)]


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
