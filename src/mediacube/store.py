"""Catalog persistence: generic records, usage events, users, contexts.

The store is a single-writer container; snapshots are immutable values that
any number of readers may hold concurrently. The canonical on-disk form is
UTF-8 JSON Lines, one object per line with a ``kind`` discriminator, keys
in lexicographic order, sections ordered sources, records, users, contexts,
events. Saving the same snapshot twice yields byte-identical files.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping

from .codes import DocumentCode, parse_document_code
from .descriptors import GenericRecord, record_from_dict, record_to_dict, validate_record
from .errors import BadRequest, MediaCubeError
from .federation import SourceRegistry, source_from_dict, source_to_dict

USE_TYPES = ("repetitive", "occasional")
STATIC_CONTEXTS = ("teaching", "learning", "documentation", "entertainment")

#: first_seen for the four static contexts: they predate every event log.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


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

    Besides the event tuple it carries one column per event key, each
    parallel to ``events``: the canonical document-code text, the UTC day
    label (``YYYY-MM-DD``), the context, the user, the use type and the
    event id. Analytics groups over these columns instead of the events.
    """

    records: tuple[GenericRecord, ...]
    events: tuple[UsageEvent, ...]
    users: tuple[UserProfile, ...]
    contexts: tuple[ContextEntry, ...]
    event_codes: tuple[str, ...] = field(compare=False, repr=False)
    event_days: tuple[str, ...] = field(compare=False, repr=False)

    # Derived from the value fields; excluded from equality.
    event_contexts: tuple[str, ...] = field(init=False, compare=False, repr=False)
    event_users: tuple[str, ...] = field(init=False, compare=False, repr=False)
    event_use_types: tuple[str, ...] = field(init=False, compare=False, repr=False)
    event_ids: tuple[int, ...] = field(init=False, compare=False, repr=False)
    record_by_code: Mapping[str, GenericRecord] = field(init=False, compare=False, repr=False)
    user_by_id: Mapping[str, UserProfile] = field(init=False, compare=False, repr=False)
    context_labels: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name, attr in (("event_contexts", "context"), ("event_users", "user_id"),
                           ("event_use_types", "use_type"), ("event_ids", "event_id")):
            object.__setattr__(self, name, tuple(map(attrgetter(attr), self.events)))
        object.__setattr__(self, "record_by_code",
                           {str(r.document_code): r for r in self.records})
        object.__setattr__(self, "user_by_id", {u.user_id: u for u in self.users})
        object.__setattr__(self, "context_labels",
                           frozenset(c.label for c in self.contexts))


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
        self._events: list[UsageEvent] = []
        # Append-only key columns parallel to _events: code text and UTC day.
        self._event_codes: list[str] = []
        self._event_days: list[str] = []
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
            self._append(replace(event, event_id=event_id, timestamp=timestamp), code)
            return event_id

    def _append(self, event: UsageEvent, code: str) -> None:
        """Add a validated event and its key columns; the caller holds the lock."""
        self._events.append(event)
        self._event_codes.append(sys.intern(code))
        self._event_days.append(sys.intern(event.timestamp.date().isoformat()))
        self._next_event_id = max(self._next_event_id, event.event_id + 1)
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
                    events=tuple(self._events),
                    users=tuple(self._users[k] for k in sorted(self._users)),
                    contexts=tuple(self.list_contexts()),
                    event_codes=tuple(self._event_codes),
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
            for event in self._events:
                yield {
                    "kind": "event",
                    "event_id": event.event_id,
                    "document_code": str(event.document_code),
                    "context": event.context,
                    "user_id": event.user_id,
                    "timestamp": format_timestamp(event.timestamp),
                    "use_type": event.use_type,
                }

    @classmethod
    def load(cls, path: str | Path) -> "CatalogStore":
        """Reconstruct a store from its canonical serialization.

        Any unparseable or inconsistent line raises :class:`CorruptCatalog`
        naming the line number.
        """
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise StorageIO(f"cannot read {path}: {exc}") from exc
        store = cls()
        codes: dict[str, DocumentCode] = {}  # one code object per distinct text
        for line_number, line in enumerate(text.split("\n"), start=1):
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorruptCatalog(line_number, f"invalid JSON: {exc.msg}") from exc
            try:
                store._apply_loaded(data, codes)
            except CorruptCatalog:
                raise
            except (MediaCubeError, KeyError, ValueError, TypeError) as exc:
                raise CorruptCatalog(line_number, str(exc)) from exc
        return store

    def _apply_loaded(self, data: dict, codes: dict[str, DocumentCode]) -> None:
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
            # Parsed text is canonical, so ``code`` equals str(document_code).
            code = data["document_code"]
            document_code = codes.get(code)
            if document_code is None:
                document_code = codes[code] = parse_document_code(code)
            event = UsageEvent(
                event_id=int(data["event_id"]),
                document_code=document_code,
                context=sys.intern(data["context"]),
                user_id=sys.intern(data["user_id"]),
                timestamp=parse_timestamp(data["timestamp"]),
                use_type=sys.intern(data["use_type"]),
            )
            if code not in self._records:
                raise ValueError(f"event {event.event_id} references unknown document {code}")
            if event.user_id not in self._users:
                raise ValueError(f"event {event.event_id} references unknown user {event.user_id!r}")
            if event.use_type not in USE_TYPES:
                raise ValueError(f"event {event.event_id} has bad use_type {event.use_type!r}")
            self._append(event, code)
        else:
            raise ValueError(f"unknown object kind {kind!r}")


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"
