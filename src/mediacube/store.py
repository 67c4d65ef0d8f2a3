"""Catalog persistence: generic records, usage events, users, contexts.

The store is a single-writer container; snapshots are immutable values that
any number of readers may hold concurrently. A usage event is written before
it is applied, and every write replaces the file through a temporary file and
a rename. The canonical on-disk form is UTF-8 JSON Lines, one object per line
with a ``kind`` discriminator, keys in lexicographic order, sections ordered
sources, records, users, contexts, events. Saving the same snapshot twice
yields byte-identical files.

Each record is held as its canonical catalog line, the text ``save`` writes,
and decoded into a :class:`GenericRecord` only when it is read. The event log
is one table of columns: event ids and UTC epoch seconds in ``array('q')``, the
code text, context, user and use type each dictionary-encoded in an ``array('i')``.
``snapshot`` fills a UTC day column and the postings (each value's rows) that let a
query read only its rows, and hands out the table with its row count, copying none.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
from array import array
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass, field, fields as dataclass_fields
from datetime import datetime, timedelta, timezone
from functools import cached_property, lru_cache
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .codes import DocumentCode, MalformedCode, check_document_code, parse_document_code
from .descriptors import (MEDIA, GenericRecord, check_record_dict, record_dict_plan,
                          record_from_dict, record_to_dict, validate_record)
from .errors import BadRequest, MediaCubeError
from .federation import SourceDescriptor, SourceRegistry, source_from_dict, source_to_dict

USE_TYPES = ("repetitive", "occasional")
STATIC_CONTEXTS = ("teaching", "learning", "documentation", "entertainment")

#: first_seen for the four static contexts: they predate every event log.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)
#: A day's UTC label (``YYYY-MM-DD``), the day counted from the epoch: one ``isoformat`` a day.
_day_label = lru_cache(maxsize=1 << 16)(lambda day: _instant(day * 86400).date().isoformat())
#: An event row's columns in ``_append`` order; the table's ``time`` is derived from ``seconds``.
_EVENT_COLUMNS = ("id", "seconds", "document", "context", "user", "use_type")
_LAST_EVENT_ID = 2**63 - 1  # the largest id the ``array('q')`` column holds


class RecordInvalid(MediaCubeError):
    pass


class RecordNotFound(MediaCubeError):
    pass


class UnknownDocument(MediaCubeError):
    pass


class UnknownUser(MediaCubeError):
    pass


class UnknownContext(MediaCubeError):
    pass


class MalformedProfile(MediaCubeError):
    pass


class MalformedEvent(MediaCubeError):
    pass


class StorageIO(MediaCubeError):
    pass


class CorruptCatalog(MediaCubeError):
    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {reason}")


def utc_now() -> datetime:
    return datetime.now(timezone.utc).replace(microsecond=0)


def normalize_timestamp(value: datetime) -> datetime:
    """Clamp to UTC, second precision. Naive datetimes are taken as UTC."""
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return value.astimezone(timezone.utc).replace(microsecond=0)


def format_timestamp(value: datetime) -> str:
    """ISO 8601 UTC with a trailing ``Z``; the year is always four digits."""
    return normalize_timestamp(value).replace(tzinfo=None).isoformat() + "Z"


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO 8601 UTC instant with a trailing ``Z``."""
    return normalize_timestamp(datetime.fromisoformat(text.replace("Z", "+00:00")))


#: The request grammar of a UTC day and of a UTC instant to the second, in ASCII digits:
#: ``parse_filter`` and ``parse_usage_event`` hold their input to it, ``load`` does not.
DAY_PATTERN = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
INSTANT_PATTERN = re.compile(DAY_PATTERN.pattern + r"T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")


def _instant(seconds: int) -> datetime:
    """The UTC instant ``seconds`` after the Unix epoch; works before 1970 too."""
    return _EPOCH + timedelta(seconds=seconds)


@dataclass(frozen=True, kw_only=True, slots=True)
class UsageEvent:
    """One observation of a document being used.

    ``event_id`` is assigned by the store; leave it ``None`` on input.
    """

    event_id: int | None = None
    document_code: DocumentCode
    context: str
    user_id: str
    timestamp: datetime
    use_type: str


def parse_usage_event(fields: Mapping[str, object]) -> UsageEvent:
    """Build an unrecorded event from its text fields; ``timestamp`` defaults to now.

    The one parser of usage input, shared by ``usage-log`` and ``POST /usage``.
    A missing or non-string field, or a timestamp that is not an instant matched
    in full by :data:`INSTANT_PATTERN`, raises :class:`BadRequest`; a code that
    does not parse raises ``MalformedCode``.
    """
    for name in ("document_code", "context", "user_id", "use_type"):
        if name not in fields:
            raise BadRequest(f"missing field {name}")
    for name in ("document_code", "context", "user_id", "use_type", "timestamp"):
        if not isinstance(fields.get(name, ""), str):
            raise BadRequest(f"field {name} must be a string, got {fields[name]!r}")
    text = fields.get("timestamp")
    try:
        if text is not None and not INSTANT_PATTERN.fullmatch(text):
            raise ValueError(text)
        timestamp = utc_now() if text is None else parse_timestamp(text)
    except ValueError:
        raise BadRequest(
            f"timestamp expects an instant like 2024-01-01T09:00:00Z, got {text!r}") from None
    return UsageEvent(
        document_code=parse_document_code(fields["document_code"]),
        context=fields["context"],
        user_id=fields["user_id"],
        timestamp=timestamp,
        use_type=fields["use_type"],
    )


@dataclass(frozen=True, kw_only=True)
class UserProfile:
    user_id: str
    name: str
    address: str | None = None
    social_class: str | None = None


@dataclass(frozen=True, kw_only=True)
class ContextEntry:
    label: str
    origin: str  # "static" | "dynamic"
    first_seen: datetime


@dataclass
class _Records(Mapping):
    """Code text to record: ``lines`` holds each record's catalog line, and ``decoded``
    the records decoded so far. Equality compares the lines. Readers that race to
    decode one record all get the one ``setdefault`` keeps."""

    lines: dict[str, str]
    decoded: dict[str, GenericRecord] = field(compare=False)

    def __getitem__(self, code: str) -> GenericRecord:
        if (record := self.decoded.get(code)) is None:
            record = self.decoded.setdefault(code, record_from_dict(json.loads(self.lines[code])))
        return record

    def __contains__(self, code: object) -> bool:
        return code in self.lines

    def __iter__(self) -> Iterator[str]:
        return iter(self.lines)

    def __len__(self) -> int:
        return len(self.lines)


@dataclass(frozen=True, kw_only=True, eq=False)
class CatalogSnapshot:
    """An immutable, internally consistent view handed to analytics.

    ``record_by_code`` decodes a record on first read, and ``records`` all of
    them. ``columns`` is the store's event table, which later writes extend; :meth:`column`
    reads its first ``rows`` rows: ``id``, ``seconds`` (UTC epoch), ``document`` (code text),
    ``context``, ``user``, ``use_type`` and ``time`` (UTC day), as ``event_*`` and ``events`` do.
    Equality compares the record lines, users, contexts and columns other than ``time``.
    """

    record_by_code: Mapping[str, GenericRecord]
    users: tuple[UserProfile, ...]
    contexts: tuple[ContextEntry, ...]
    columns: Mapping[str, array | _Column] = field(repr=False)
    rows: int
    decoded: dict[str, Sequence] = field(init=False, default_factory=dict, repr=False)

    # Derived from the value fields.
    user_by_id: Mapping[str, UserProfile] = field(init=False, repr=False)
    context_labels: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "user_by_id", {u.user_id: u for u in self.users})
        object.__setattr__(self, "context_labels",
                           frozenset(c.label for c in self.contexts))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CatalogSnapshot) and (
            (self.record_by_code, self.users, self.contexts)
            == (other.record_by_code, other.users, other.contexts)) and all(
            self.column(name) == other.column(name) for name in _EVENT_COLUMNS)

    @cached_property
    def records(self) -> tuple[GenericRecord, ...]:
        """Every record, in code order."""
        return tuple(map(self.record_by_code.__getitem__, sorted(self.record_by_code)))

    def column(self, name: str) -> Sequence:
        """Column ``name`` cut (an array) or decoded (a ``_Column``) to ``rows`` rows; kept."""
        if (values := self.decoded.get(name)) is None:
            column = self.columns[name]
            values = self.decoded.setdefault(name, column[:self.rows] if isinstance(column, array)
                                             else tuple(islice(column, self.rows)))
        return values

    event_ids = property(lambda self: self.column("id"))
    event_seconds = property(lambda self: self.column("seconds"))
    event_codes = property(lambda self: self.column("document"))
    event_contexts = property(lambda self: self.column("context"))
    event_users = property(lambda self: self.column("user"))
    event_use_types = property(lambda self: self.column("use_type"))
    event_days = property(lambda self: self.column("time"))

    def event_rows(self, dimension: str, value: str) -> array:
        """The rows, ascending, whose ``dimension`` (a key of ``columns``) holds ``value``."""
        column = self.columns[dimension]
        index = column.index.get(value, -1)  # a value first seen later may have no posting yet
        posting = column.postings[index] if 0 <= index < len(column.postings) else array("i")
        return posting[:bisect_left(posting, self.rows)]

    @cached_property
    def events(self) -> tuple[UsageEvent, ...]:
        """The event log as objects, built from the columns on first read."""
        # Every event's code text is a record key, so the record has its code.
        codes = {text: self.record_by_code[text].document_code for text in set(self.event_codes)}
        return tuple(
            UsageEvent(event_id=event_id, document_code=codes[code], context=context,
                       user_id=user_id, timestamp=_instant(seconds), use_type=use_type)
            for event_id, seconds, code, context, user_id, use_type in zip(
                *map(self.column, _EVENT_COLUMNS)))


class _Column:
    """An append-only, dictionary-encoded string column with a posting list per value.

    ``indices`` holds one entry per row: the position in ``values``, the
    distinct strings in order of first appearance, which ``index`` maps back.
    ``postings[i]`` lists the rows holding ``values[i]`` in ascending order, up to
    the last row :meth:`cover` saw. Iterating decodes the rows.
    """

    __slots__ = ("indices", "values", "index", "postings")

    def __init__(self):
        self.indices = array("i")
        self.values: list[str] = []
        self.index: dict[str, int] = {}
        self.postings: list[array] = []

    def append(self, value: str) -> None:
        index = self.index.get(value)
        if index is None:
            index = self.index[value] = len(self.values)
            self.values.append(value)
        self.indices.append(index)

    def cover(self, start: int) -> None:
        """Add each row from ``start``, the first row in no posting, to its value's posting."""
        postings = self.postings
        postings += [array("i") for _ in range(len(self.values) - len(postings))]
        for row, index in enumerate(self.indices[start:], start):
            postings[index].append(row)

    def __iter__(self) -> Iterator[str]:
        return map(self.values.__getitem__, self.indices)


def _context_order(entry: ContextEntry) -> tuple:
    """The order of ``list_contexts``: the four static contexts first, then by first_seen."""
    return entry.origin != "static", entry.first_seen, entry.label


def _static_context_table() -> dict[str, ContextEntry]:
    return {
        label: ContextEntry(label=label, origin="static", first_seen=_EPOCH)
        for label in STATIC_CONTEXTS
    }


class CatalogStore:
    """Mutable catalog: derived records, event log, users, contexts, sources."""

    def __init__(self):
        self._lock = threading.RLock()
        self._records = _Records({}, {})
        # The event log: one row per event across these append-only columns, named as
        # ``CatalogSnapshot.column`` reads them; ``snapshot`` fills the day labels of ``time``.
        self._events = {"id": array("q"), "seconds": array("q"), "document": _Column(),
                        "context": _Column(), "user": _Column(), "use_type": _Column(),
                        "time": _Column()}
        self._users: dict[str, UserProfile] = {}
        self._contexts: dict[str, ContextEntry] = _static_context_table()
        self._next_event_id = 1
        self._snapshot: CatalogSnapshot | None = None  # dropped by every write
        self.sources = SourceRegistry()

    # -- generic records ----------------------------------------------------

    def put_record(self, record: GenericRecord) -> None:
        """Insert or replace a record; it must validate with no violations.

        Related-document references are not checked: a dangling one is accepted.
        """
        with self._lock:
            validate_record(record).refuse(record.document_code, RecordInvalid)
            code = str(record.document_code)
            self._records.lines[code] = _dump_line({"kind": "record", **record_to_dict(record)})
            self._records.decoded[code] = record
            self._snapshot = None

    def get_record(self, code: DocumentCode | str) -> GenericRecord:
        with self._lock:
            try:
                return self._records[str(code)]
            except KeyError:
                raise RecordNotFound(f"no record for {code}") from None

    # -- users ---------------------------------------------------------------

    def register_user(self, profile: UserProfile) -> None:
        """Store a profile; re-registration with the same user_id replaces it."""
        if not isinstance(profile.user_id, str) or not profile.user_id:
            raise MalformedProfile(f"user_id must be a non-empty string, got {profile.user_id!r}")
        if not isinstance(profile.name, str):
            raise MalformedProfile(f"name must be a string, got {profile.name!r}")
        for name in ("address", "social_class"):
            value = getattr(profile, name)
            if value is not None and not isinstance(value, str):
                raise MalformedProfile(f"{name} must be a string or absent, got {value!r}")
        with self._lock:
            self._users[profile.user_id] = profile
            self._snapshot = None

    def get_user(self, user_id: str) -> UserProfile:
        try:
            return self._users[user_id]
        except KeyError:
            raise UnknownUser(f"user {user_id!r} is not registered") from None

    # -- usage events and contexts -------------------------------------------

    def record_usage(self, event: UsageEvent) -> int:
        """Append one usage event and return its assigned event_id.

        A context label not yet in the registry enriches it with a dynamic
        entry first seen at the event's timestamp.
        """
        with self._lock:
            row = self._event_row(event)
            self._append(*row)
            return row[0]

    def record_usage_and_save(self, event: UsageEvent, path: str | Path) -> int:
        """Write the catalog with ``event`` in it to ``path``, then apply the event.

        The store lock is held throughout, and the event is appended as by
        :meth:`record_usage` only once the file holds it, so the file equals
        :meth:`save` of the new state. A write that fails raises
        :class:`StorageIO` and leaves both the store and the old file as they were.
        """
        with self._lock:
            row = self._event_row(event)
            _write_catalog(path, self._serialized_lines(row))
            self._append(*row)
            return row[0]

    def _event_row(self, event: UsageEvent) -> tuple:
        """Check ``event`` and build its row: id, epoch seconds, code, context, user, use type."""
        code = str(event.document_code)
        self._check_event(code, event.context, event.user_id, event.use_type)
        if (event_id := self._next_event_id) > _LAST_EVENT_ID:  # before anything is written
            raise StorageIO(f"event id {event_id} is above the largest, {_LAST_EVENT_ID}")
        seconds = (normalize_timestamp(event.timestamp) - _EPOCH) // _SECOND
        return event_id, seconds, code, event.context, event.user_id, event.use_type

    def _check_event(self, code: str, context, user_id, use_type) -> None:
        """Refuse an event that ``record_usage`` or ``load`` must not admit."""
        if use_type not in USE_TYPES:
            raise MalformedEvent(f"use_type must be one of {USE_TYPES}, got {use_type!r}")
        if not isinstance(context, str) or not context:
            raise MalformedEvent(f"context label must be a non-empty string, got {context!r}")
        if code not in self._records.lines:
            raise UnknownDocument(f"no record for {code}")
        if user_id not in self._users:
            raise UnknownUser(f"user {user_id!r} is not registered")

    def _append(self, event_id: int, seconds: int, code: str, context: str, user_id: str,
                use_type: str) -> None:
        """Add one checked row above the last id, registering a novel context; the lock held."""
        if context not in self._contexts:
            self._contexts[context] = ContextEntry(
                label=context, origin="dynamic", first_seen=_instant(seconds))
        events = self._events
        events["id"].append(event_id)
        events["seconds"].append(seconds)
        events["document"].append(code)
        events["context"].append(context)
        events["user"].append(user_id)
        events["use_type"].append(use_type)
        self._next_event_id = event_id + 1
        self._snapshot = None

    def list_contexts(self) -> list[ContextEntry]:
        """All context entries, the four static ones first, then by first_seen."""
        return sorted(self._contexts.values(), key=_context_order)

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> CatalogSnapshot:
        """The current state; the same object is returned until the next write."""
        with self._lock:
            if self._snapshot is None:
                events, days = self._events, self._events["time"]
                start = len(days.indices)  # each column's postings hold the rows up to here
                for seconds in islice(events["seconds"], start, None):
                    days.append(_day_label(seconds // 86400))  # floors before 1970 too
                for name in ("document", "context", "user", "time"):
                    events[name].cover(start)
                self._snapshot = CatalogSnapshot(
                    record_by_code=_Records(dict(self._records.lines), dict(self._records.decoded)),
                    users=tuple(self._users[k] for k in sorted(self._users)),
                    contexts=tuple(self.list_contexts()),
                    columns=events, rows=len(events["id"]),
                )
            return self._snapshot

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the canonical JSON Lines form; byte-deterministic."""
        with self._lock:
            _write_catalog(path, self._serialized_lines())

    def _serialized_lines(self, row: tuple | None = None) -> Iterator[str]:
        """The catalog's lines, with an unapplied event ``row`` as if appended; the lock held."""
        for descriptor in self.sources.list():
            yield _dump_line({"kind": "source", **source_to_dict(descriptor)})
        yield from map(self._records.lines.__getitem__, sorted(self._records.lines))
        for user_id in sorted(self._users):
            values = vars(self._users[user_id]).items()
            yield _dump_line({"kind": "user", **{k: v for k, v in values if v is not None}})
        contexts = list(self._contexts.values())
        if row is not None and row[3] not in self._contexts:  # as ``_append`` will register it
            contexts.append(ContextEntry(label=row[3], origin="dynamic",
                                         first_seen=_instant(row[1])))
        for entry in sorted(contexts, key=_context_order):
            yield _dump_line({"kind": "context", **context_to_dict(entry)})
        rows = chain(zip(*map(self._events.__getitem__, _EVENT_COLUMNS)),
                     [row] if row is not None else ())
        for event_id, seconds, code, context, user_id, use_type in rows:
            yield _dump_line({
                "kind": "event",
                "event_id": event_id,
                "document_code": code,
                "context": context,
                "user_id": user_id,
                "timestamp": format_timestamp(_instant(seconds)),
                "use_type": use_type,
            })

    @classmethod
    def load(cls, path: str | Path) -> "CatalogStore":
        """Reconstruct a store from its canonical serialization.

        The file is read one line at a time. Records pass the check of :meth:`put_record`
        in JSON form and are kept as lines, re-encoded unless canonical; users pass
        :meth:`register_user` and events the check of :meth:`record_usage`. On top, a
        line holds only its kind's keys, event ids must increase, each event's context
        must have its registry line, and a context line must be one a write can create.
        A line that :func:`read_json` refuses, that is not a JSON object, or that fails
        a check raises :class:`CorruptCatalog` naming the line.
        """
        try:
            file = open(path, "rb")
        except OSError as exc:
            raise StorageIO(f"cannot read {path}: {exc}") from exc
        store, declared = cls(), set()
        with file:
            # Lines end at b"\n", a byte no multi-byte UTF-8 character contains.
            for line_number, raw in enumerate(file, start=1):
                if raw == b"\n":
                    continue
                try:
                    store._apply_loaded(raw, declared)
                except (MediaCubeError, AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise CorruptCatalog(line_number, str(exc)) from exc
        return store

    def _apply_loaded(self, raw: bytes, declared: set[str]) -> None:
        """Admit ``raw``, one line; ``declared`` holds earlier context labels."""
        data = read_json(raw)
        if not isinstance(data, dict):
            raise ValueError(f"not a JSON object: {data!r:.40}")
        kind = data.get("kind")
        keys = _LINE_KEYS.get(kind)
        if keys is None:
            raise ValueError(f"unknown object kind {kind!r}")
        # Every key of an event line is read below, so counting them is the same test.
        if len(data) > len(keys) or kind != "event" and not data.keys() <= keys:
            raise ValueError(f"unknown {kind} key: {', '.join(sorted(data.keys() - keys))}")
        if kind == "source":
            self.sources.register(source_from_dict({k: v for k, v in data.items() if k != "kind"}))
        elif kind == "record":
            text = raw.decode("utf-8")  # as ``read_json`` did
            if not _admits(text, data):  # check the record, then re-encode it as ``put_record``
                check_record_dict(data).refuse(data.get("document_code"), RecordInvalid)
                text = _dump_line({"kind": "record", **record_to_dict(record_from_dict(data))})
            self._records.lines[data["document_code"]] = text
        elif kind == "user":
            self.register_user(UserProfile(**{k: v for k, v in data.items() if k != "kind"}))
        elif kind == "context":
            # Only the lines a write can create: each label once, the four static
            # contexts as a fresh store holds them, and any other label dynamic.
            label, origin = data["label"], data["origin"]
            entry = ContextEntry(label=label, origin=origin,
                                 first_seen=parse_timestamp(data["first_seen"]))
            if not isinstance(label, str) or not label:
                raise ValueError(f"context label must be a non-empty string, got {label!r}")
            if label in declared:
                raise ValueError(f"context {label!r} is declared twice")
            if label in STATIC_CONTEXTS and entry != self._contexts[label]:
                raise ValueError(f"context {label!r} must be static, first seen at the epoch")
            if label not in STATIC_CONTEXTS and origin != "dynamic":
                raise ValueError(f"context {label!r} must be dynamic, got origin {origin!r}")
            declared.add(label)
            self._contexts[label] = entry
        elif kind == "event":
            # A record key is canonical code text, so ``code`` needs no parse.
            event_id, code = data["event_id"], data["document_code"]
            context, user_id, use_type = data["context"], data["user_id"], data["use_type"]
            if type(event_id) is not int:  # a bool is an int, but not an event id
                raise ValueError(f"event id must be an integer, got {event_id!r}")
            if event_id > _LAST_EVENT_ID:
                raise ValueError(f"event id {event_id} is above the largest, {_LAST_EVENT_ID}")
            if event_id < self._next_event_id:
                raise ValueError(f"event id {event_id} is not above {self._next_event_id - 1}")
            self._check_event(code, context, user_id, use_type)
            if context not in self._contexts:
                raise ValueError(f"event {event_id} context {context!r} has no registry line")
            seconds = (parse_timestamp(data["timestamp"]) - _EPOCH) // _SECOND
            self._append(event_id, seconds, code, context, user_id, use_type)


def context_to_dict(entry: ContextEntry) -> dict:
    """A context's JSON form, as its catalog line and ``GET /contexts`` show it."""
    return {"label": entry.label, "origin": entry.origin,
            "first_seen": format_timestamp(entry.first_seen)}


#: The keys each kind of catalog line may hold: its dataclass's fields, each by its
#: ``json`` metadata or name (a source's ``kind`` is written ``adapter``).
_LINE_KEYS = {kind: {"kind", *(f.metadata.get("json", f.name) for f in dataclass_fields(cls))}
              for kind, cls in (("source", SourceDescriptor), ("record", GenericRecord),
                                ("user", UserProfile), ("context", ContextEntry),
                                ("event", UsageEvent))}


def _finite_float(text: str) -> float:
    """A number's value; ``NaN``, ``Infinity`` and a number past the float range have none."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return value


#: The one encoder of the catalog's lines and the service's bodies, and the one
#: decoder of outside JSON, which refuses the numbers RFC 8259 gives no value.
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))
_DECODER = json.JSONDecoder(parse_constant=_finite_float, parse_float=_finite_float)


def read_json(raw: bytes) -> object:
    """Parse ``raw``, JSON from outside the program, as UTF-8 text.

    Raises :class:`BadRequest` for bytes that are not UTF-8 and for text that is
    not JSON, which includes ``NaN``, a number past the float range, an integer
    over the interpreter's digit limit and nesting past its recursion limit
    (RFC 8259 §9 lets a parser limit both), and for a key or string that holds
    a lone surrogate, which no UTF-8 text can (RFC 8259 §8.2).
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadRequest(f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    try:
        data = _DECODER.decode(text)
        if "\\u" in text:  # only a ``\u`` escape can bring in a lone surrogate
            _ENCODER.encode(data).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise BadRequest(f"not valid Unicode: lone surrogate {exc.object[exc.start]!r}") from None
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise BadRequest(f"not valid JSON: {exc}") from None
    return data


def _dump_line(obj: dict) -> str:
    return _ENCODER.encode(obj) + "\n"


_PLANS_KEPT = 256  # record shapes whose plans are kept: the most recently seen
_ITEM = len(_ENCODER.encode(["", ""])) - len(_ENCODER.encode([""]))  # a list item's comma, quotes


@lru_cache(maxsize=_PLANS_KEPT)
def _record_plan(shape: tuple) -> tuple | None:
    """The skeleton line's length and the checks of :func:`record_dict_plan` for ``shape``."""
    if (plan := record_dict_plan(*shape)) is not None:
        return len(_dump_line({"kind": "record", **plan[0]})), plan[1]
    return None


def _admits(text: str, data: dict) -> bool:
    """Whether ``text``, a record line holding ``data``, passes ``check_record_dict`` and is as
    long as its shape's skeleton with the values in: the line ``save`` writes for it."""
    try:
        size, media = _record_plan((tuple(data), data.get("media_class"),  # None: a TypeError
                                    *[tuple(data[m].keys()) for m in MEDIA if m in data]))
        check_document_code(code := data["document_code"])
        size += len(code)
        for medium, checks in media:
            for check, value in zip(checks, data[medium].values()):
                if not check(value):
                    return False
                size += (len(value) if type(value) is str
                         else sum(map(len, value)) + _ITEM * (len(value) - 1))
    except (AttributeError, KeyError, MalformedCode, TypeError, ValueError):  # e.g. no code
        return False
    return len(text) == size and text[-1] == "\n"


def _write_catalog(path: str | Path, lines: Iterable[str]) -> None:
    """Replace ``path`` through a temporary file and a rename; a failure leaves it as it was."""
    path = Path(path)
    temp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        temp.write_text("".join(lines), encoding="utf-8")
        os.replace(temp, path)
    except (OSError, UnicodeEncodeError) as exc:  # text a lone surrogate keeps from UTF-8
        with suppress(OSError):
            temp.unlink()
        raise StorageIO(f"cannot write {path}: {exc}") from exc
