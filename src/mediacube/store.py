"""Catalog persistence: generic records, usage events, users, contexts.

The store is a single-writer container; snapshots are immutable values that
any number of readers may hold concurrently. The canonical on-disk form is
UTF-8 JSON Lines, one object per line with a ``kind`` discriminator, keys
in lexicographic order, sections ordered sources, records, users, contexts,
events. Saving the same snapshot twice yields byte-identical files.

The event log is held as columns, not as :class:`UsageEvent` objects: event
ids and UTC epoch seconds in ``array('q')``, and the code text, context,
user, use type and day label each dictionary-encoded in an ``array('i')``.
"""

from __future__ import annotations

import json
import threading
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .codes import DocumentCode, parse_document_code
from .descriptors import GenericRecord, record_from_dict, record_to_dict, validate_record
from .errors import BadRequest, MediaCubeError
from .federation import SourceRegistry, source_from_dict, source_to_dict

USE_TYPES = ("repetitive", "occasional")
STATIC_CONTEXTS = ("teaching", "learning", "documentation", "entertainment")

#: first_seen for the four static contexts: they predate every event log.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)


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
    A missing or non-string field or a malformed timestamp raises
    :class:`BadRequest`; a code that does not parse raises ``MalformedCode``.
    """
    for name in ("document_code", "context", "user_id", "use_type"):
        if name not in fields:
            raise BadRequest(f"missing field {name}")
    for name in ("document_code", "context", "user_id", "use_type", "timestamp"):
        if not isinstance(fields.get(name, ""), str):
            raise BadRequest(f"field {name} must be a string, got {fields[name]!r}")
    text = fields.get("timestamp")
    try:
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


@dataclass(frozen=True, kw_only=True)
class CatalogSnapshot:
    """An immutable, internally consistent view handed to analytics.

    The events come as columns, all in event order: the event id, the UTC
    epoch seconds, the canonical document-code text, the context, the user,
    the use type and the UTC day label (``YYYY-MM-DD``). Analytics groups
    over these columns; ``events`` builds the objects on first read.
    """

    records: tuple[GenericRecord, ...]
    users: tuple[UserProfile, ...]
    contexts: tuple[ContextEntry, ...]
    event_ids: array
    event_seconds: array
    event_codes: tuple[str, ...]
    event_contexts: tuple[str, ...]
    event_users: tuple[str, ...]
    event_use_types: tuple[str, ...]
    event_days: tuple[str, ...] = field(compare=False, repr=False)  # from event_seconds

    # Derived from the value fields; excluded from equality.
    record_by_code: Mapping[str, GenericRecord] = field(init=False, compare=False, repr=False)
    user_by_id: Mapping[str, UserProfile] = field(init=False, compare=False, repr=False)
    context_labels: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "record_by_code",
                           {str(r.document_code): r for r in self.records})
        object.__setattr__(self, "user_by_id", {u.user_id: u for u in self.users})
        object.__setattr__(self, "context_labels",
                           frozenset(c.label for c in self.contexts))

    @cached_property
    def events(self) -> tuple[UsageEvent, ...]:
        """The event log as objects, built from the columns on first read."""
        # Every event's code text is a record key, so the record has its code.
        codes = {text: self.record_by_code[text].document_code for text in set(self.event_codes)}
        return tuple(
            UsageEvent(event_id=event_id, document_code=codes[code], context=context,
                       user_id=user_id, timestamp=_instant(seconds), use_type=use_type)
            for event_id, seconds, code, context, user_id, use_type in zip(
                self.event_ids, self.event_seconds, self.event_codes, self.event_contexts,
                self.event_users, self.event_use_types))


class _Column:
    """An append-only, dictionary-encoded string column.

    ``indices`` holds one entry per row: the position in ``values``, the
    distinct strings in order of first appearance. Iterating decodes the rows.
    """

    __slots__ = ("indices", "values", "_index")

    def __init__(self):
        self.indices = array("i")
        self.values: list[str] = []
        self._index: dict[str, int] = {}

    def append(self, value: str) -> None:
        index = self._index.get(value)
        if index is None:
            index = self._index[value] = len(self.values)
            self.values.append(value)
        self.indices.append(index)

    def __iter__(self) -> Iterator[str]:
        return map(self.values.__getitem__, self.indices)


def _static_context_table() -> dict[str, ContextEntry]:
    return {
        label: ContextEntry(label=label, origin="static", first_seen=_EPOCH)
        for label in STATIC_CONTEXTS
    }


class CatalogStore:
    """Mutable catalog: derived records, event log, users, contexts, sources."""

    def __init__(self):
        self._lock = threading.RLock()
        self._records: dict[str, GenericRecord] = {}
        # The event log: one row per event across these append-only columns.
        self._event_ids = array("q")
        self._event_seconds = array("q")
        self._event_codes = _Column()
        self._event_contexts = _Column()
        self._event_users = _Column()
        self._event_use_types = _Column()
        self._event_days = _Column()
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
            report = validate_record(record)
            if not report.ok:
                details = "; ".join(f"{p.field}: {p.message}" for p in report.violations)
                raise RecordInvalid(f"{record.document_code}: {details}")
            self._records[str(record.document_code)] = record
            self._snapshot = None

    def get_record(self, code: DocumentCode | str) -> GenericRecord:
        try:
            return self._records[str(code)]
        except KeyError:
            raise RecordNotFound(f"no record for {code}") from None

    # -- users ---------------------------------------------------------------

    def register_user(self, profile: UserProfile) -> None:
        """Store a profile; re-registration with the same user_id replaces it."""
        if not profile.user_id:
            raise MalformedProfile("user_id must be non-empty")
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
        if event.use_type not in USE_TYPES:
            raise MalformedEvent(f"use_type must be one of {USE_TYPES}, got {event.use_type!r}")
        if not event.context:
            raise MalformedEvent("context label must be non-empty")
        with self._lock:
            code = str(event.document_code)
            if code not in self._records:
                raise UnknownDocument(f"no record for {code}")
            if event.user_id not in self._users:
                raise UnknownUser(f"user {event.user_id!r} is not registered")
            timestamp = normalize_timestamp(event.timestamp)
            if event.context not in self._contexts:
                self._contexts[event.context] = ContextEntry(
                    label=event.context, origin="dynamic", first_seen=timestamp)
            event_id = self._next_event_id
            self._append(event_id, code, event.context, event.user_id, timestamp, event.use_type)
            return event_id

    def record_usage_and_save(self, event: UsageEvent, path: str | Path) -> int:
        """:meth:`record_usage`, then :meth:`save`; a failed save undoes the event.

        If the save raises :class:`StorageIO`, the store is put back exactly as
        it was, so memory never keeps an event the file lacks. Like the save
        itself, the undo relies on the store having a single writer; a reader
        may see the event while the file is being written.
        """
        with self._lock:
            rows, next_id, snapshot = len(self._event_ids), self._next_event_id, self._snapshot
            novel = event.context not in self._contexts
            event_id = self.record_usage(event)
        try:
            self.save(path)
        except StorageIO:
            with self._lock:
                for column in (self._event_ids, self._event_seconds, self._event_codes.indices,
                               self._event_contexts.indices, self._event_users.indices,
                               self._event_use_types.indices, self._event_days.indices):
                    del column[rows:]
                if novel:
                    del self._contexts[event.context]
                self._next_event_id, self._snapshot = next_id, snapshot
            raise
        return event_id

    def _append(self, event_id: int, code: str, context: str, user_id: str,
                timestamp: datetime, use_type: str) -> None:
        """Add one validated row; ``timestamp`` is normalized and the caller holds the lock."""
        self._event_ids.append(event_id)
        self._event_seconds.append((timestamp - _EPOCH) // _SECOND)
        self._event_codes.append(code)
        self._event_contexts.append(context)
        self._event_users.append(user_id)
        self._event_use_types.append(use_type)
        self._event_days.append(timestamp.date().isoformat())
        self._next_event_id = max(self._next_event_id, event_id + 1)
        self._snapshot = None

    def list_contexts(self) -> list[ContextEntry]:
        """All context entries, the four static ones first, then by first_seen."""
        return sorted(
            self._contexts.values(),
            key=lambda c: (c.origin != "static", c.first_seen, c.label),
        )

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> CatalogSnapshot:
        """The current state; the same object is returned until the next write."""
        with self._lock:
            if self._snapshot is None:
                self._snapshot = CatalogSnapshot(
                    records=tuple(self._records[k] for k in sorted(self._records)),
                    users=tuple(self._users[k] for k in sorted(self._users)),
                    contexts=tuple(self.list_contexts()),
                    event_ids=array("q", self._event_ids),
                    event_seconds=array("q", self._event_seconds),
                    event_codes=tuple(self._event_codes),
                    event_contexts=tuple(self._event_contexts),
                    event_users=tuple(self._event_users),
                    event_use_types=tuple(self._event_use_types),
                    event_days=tuple(self._event_days),
                )
            return self._snapshot

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the canonical JSON Lines form; byte-deterministic."""
        lines = [_dump_line(obj) for obj in self._serialized_objects()]
        try:
            Path(path).write_text("".join(lines), encoding="utf-8")
        except OSError as exc:
            raise StorageIO(f"cannot write {path}: {exc}") from exc

    def _serialized_objects(self) -> Iterable[dict]:
        with self._lock:
            for descriptor in self.sources.list():
                yield {"kind": "source", **source_to_dict(descriptor)}
            for code in sorted(self._records):
                yield {"kind": "record", **record_to_dict(self._records[code])}
            for user_id in sorted(self._users):
                profile = self._users[user_id]
                obj = {"kind": "user", "user_id": profile.user_id, "name": profile.name}
                if profile.address is not None:
                    obj["address"] = profile.address
                if profile.social_class is not None:
                    obj["social_class"] = profile.social_class
                yield obj
            for entry in self.list_contexts():
                yield {
                    "kind": "context",
                    "label": entry.label,
                    "origin": entry.origin,
                    "first_seen": format_timestamp(entry.first_seen),
                }
            for event_id, seconds, code, context, user_id, use_type in zip(
                    self._event_ids, self._event_seconds, self._event_codes,
                    self._event_contexts, self._event_users, self._event_use_types):
                yield {
                    "kind": "event",
                    "event_id": event_id,
                    "document_code": code,
                    "context": context,
                    "user_id": user_id,
                    "timestamp": format_timestamp(_instant(seconds)),
                    "use_type": use_type,
                }

    @classmethod
    def load(cls, path: str | Path) -> "CatalogStore":
        """Reconstruct a store from its canonical serialization.

        The file is read one line at a time. Any line that is not UTF-8, not
        JSON, or inconsistent raises :class:`CorruptCatalog` naming the line
        number.
        """
        try:
            file = open(path, "rb")
        except OSError as exc:
            raise StorageIO(f"cannot read {path}: {exc}") from exc
        store = cls()
        with file:
            # Lines end at b"\n", a byte no multi-byte UTF-8 character contains.
            for line_number, raw in enumerate(file, start=1):
                if raw == b"\n":
                    continue
                try:
                    data = json.loads(raw.decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise CorruptCatalog(line_number, f"not UTF-8: {exc.reason} "
                                                      f"at byte {exc.start}") from None
                except json.JSONDecodeError as exc:
                    raise CorruptCatalog(line_number, f"invalid JSON: {exc.msg}") from exc
                if not isinstance(data, dict):
                    raise CorruptCatalog(line_number, f"not a JSON object: {data!r:.40}")
                try:
                    store._apply_loaded(data)
                except (MediaCubeError, KeyError, ValueError, TypeError) as exc:
                    raise CorruptCatalog(line_number, str(exc)) from exc
        return store

    def _apply_loaded(self, data: dict) -> None:
        self._snapshot = None
        kind = data.get("kind")
        if kind == "source":
            self.sources.register(source_from_dict(data))
        elif kind == "record":
            self._records[str(data["document_code"])] = record_from_dict(data)
        elif kind == "user":
            self.register_user(UserProfile(
                user_id=data["user_id"],
                name=data["name"],
                address=data.get("address"),
                social_class=data.get("social_class"),
            ))
        elif kind == "context":
            self._contexts[data["label"]] = ContextEntry(
                label=data["label"],
                origin=data["origin"],
                first_seen=parse_timestamp(data["first_seen"]),
            )
        elif kind == "event":
            # A record key is canonical code text, so ``code`` needs no parse.
            event_id, code = int(data["event_id"]), data["document_code"]
            context, user_id, use_type = data["context"], data["user_id"], data["use_type"]
            if code not in self._records:
                raise ValueError(f"event {event_id} references unknown document {code!r}")
            if user_id not in self._users:
                raise ValueError(f"event {event_id} references unknown user {user_id!r}")
            if use_type not in USE_TYPES:
                raise ValueError(f"event {event_id} has bad use_type {use_type!r}")
            if not isinstance(context, str):
                raise ValueError(f"event {event_id} has non-string context {context!r}")
            self._append(event_id, code, context, user_id,
                         parse_timestamp(data["timestamp"]), use_type)
        else:
            raise ValueError(f"unknown object kind {kind!r}")


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"
