"""Source registration, harvesting, and mapping into the generic schema.

Three adapter kinds cover heterogeneous ingestion at desk scale:

* ``tabular``: a UTF-8 file whose first line is a tab-separated header of
  field paths and whose remaining lines are tab-separated values. The
  column named ``local_id`` (or, failing that, the first column) supplies
  the record identifier.
* ``file-tree``: a directory with one ``<local_id>.meta`` sidecar per
  document, each holding ``field<TAB>value`` lines.
* ``remote-line``: a byte-stream endpoint speaking a newline-delimited
  protocol: ``LIST`` returns one local_id per line then a blank line,
  ``GET <local_id>`` returns ``field<TAB>value`` lines then a blank line,
  and ``ERR <msg>`` signals failure.

Each kind has one reader, through which both a harvest and a resolve read
the source, so a resolve returns the record a harvest keeps.

Per-record problems never abort a harvest; only source-level connection
failures do. Sources are mutually independent.
"""

from __future__ import annotations

import socket
import threading
from contextlib import closing
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields
from datetime import date
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

from .codes import DocumentCode, MalformedCode, SOURCE_ID_PATTERN, parse_document_code
from .descriptors import (
    CODES,
    DATE,
    MEDIA,
    REQUIRED_FIELDS,
    GenericRecord,
    SCHEMA_FIELDS,
    make_descriptor,
    validate_record,
)
from .errors import MediaCubeError
from .taxonomy import MediaPresence, classify

if TYPE_CHECKING:
    from .store import CatalogStore

REMOTE_TIMEOUT = 10.0
#: Remote-line GETs kept in flight during a harvest.
GET_WINDOW = 64
#: What one remote-line connection, for a harvest or a resolve, may send: the bytes
#: of a reply line (its newline included), the lines of a reply, the bytes of every
#: reply. Each is at least 50 times the benchmark's largest source (33-byte lines,
#: 2,001-line replies, 317 kB a harvest); a breach is :class:`SourceUnreachable`.
REMOTE_LINE_BYTES = 64 * 1024
REMOTE_REPLY_LINES = 100_000
REMOTE_HARVEST_BYTES = 64 * 1024 * 1024


class DuplicateSource(MediaCubeError):
    pass


class InvalidMapping(MediaCubeError):
    pass


class UnknownSource(MediaCubeError):
    pass


class SourceDisabled(MediaCubeError):
    pass


class SourceUnreachable(MediaCubeError):
    pass


class NotFoundAtSource(MediaCubeError):
    pass


class PresenceUndecidable(MediaCubeError):
    pass


class RequiredFieldMissing(MediaCubeError):
    def __init__(self, field_path: str, detail: str = ""):
        self.field_path = field_path
        super().__init__(field_path if not detail else f"{field_path}: {detail}")


class FieldTransformError(MediaCubeError):
    pass


class MappedRecordInvalid(MediaCubeError):
    pass


# ---------------------------------------------------------------------------
# Mapping model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PresenceRule:
    """Declares a medium present when a raw field matches.

    With ``equals`` set, the medium is present when the raw field carries
    exactly that value; otherwise any non-empty value suffices. Rules for
    the same medium combine as alternatives.
    """

    medium: str
    field: str
    equals: str | None = None

    def satisfied_by(self, raw_fields: Mapping[str, str]) -> bool:
        value = raw_fields.get(self.field)
        if value is None or value == "":
            return False
        return value == self.equals if self.equals is not None else True


@dataclass(frozen=True)
class FieldRule:
    """Copies one raw field into a generic field, optionally transformed."""

    source: str
    target: str
    transform: str = "identity"


@dataclass(frozen=True)
class FieldMapping:
    """Declarative mapping from a source's raw fields to the generic schema."""

    presence_rules: tuple[PresenceRule, ...] = field(metadata={"json": "presence"})
    field_rules: tuple[FieldRule, ...] = field(default=(), metadata={"json": "fields"})
    defaults: Mapping[str, str] = field(default_factory=dict)
    uri_field: str | None = None

    @property
    def declared_media(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(rule.medium for rule in self.presence_rules))


@dataclass(frozen=True)
class SourceDescriptor:
    """Registration of one federated source plus its field mapping."""

    source_id: str
    kind: str = field(metadata={"json": "adapter"})
    location: str
    mapping: FieldMapping
    enabled: bool = True


@dataclass(frozen=True)
class SourceRecord:
    """One raw record as the origin source holds it."""

    source_id: str
    local_id: str
    raw_fields: Mapping[str, str]


@dataclass(frozen=True)
class RecordProblem:
    """A per-record failure: which record, which error case, and why."""

    locator: str
    case: str
    message: str


@dataclass(frozen=True)
class HarvestResult:
    source_id: str
    records: tuple[SourceRecord, ...]
    problems: tuple[RecordProblem, ...] = ()


@dataclass(frozen=True)
class IngestReport:
    source_id: str
    ingested: tuple[str, ...]
    problems: tuple[RecordProblem, ...] = ()


def validate_mapping(mapping: FieldMapping) -> None:
    """The one check of a mapping, however it was built: raise :class:`InvalidMapping`
    naming the first offending value or rule. Shapes and value types are checked first."""
    if not isinstance(mapping, FieldMapping):
        raise InvalidMapping(f"mapping must be a FieldMapping, got {mapping!r}")
    for name, kind in (("presence_rules", PresenceRule), ("field_rules", FieldRule)):
        rules = getattr(mapping, name)
        for rule in rules if isinstance(rules, (tuple, list)) else (rules,):
            if not isinstance(rule, kind):
                raise InvalidMapping(f"{name} must be a tuple of {kind.__name__}, got {rules!r}")
            for f in dataclass_fields(rule):
                value = getattr(rule, f.name)
                if not (isinstance(value, str) and value or value is None and f.default is None):
                    raise InvalidMapping(f"{kind.__name__} {f.name!r} must be a non-empty string, "
                                         f"got {value!r}")
    if not (isinstance(mapping.defaults, Mapping) and all(
            isinstance(k, str) and isinstance(v, str) for k, v in mapping.defaults.items())):
        raise InvalidMapping(f"mapping 'defaults' must be an object of strings, "
                             f"got {mapping.defaults!r}")
    if not isinstance(mapping.uri_field, (str, type(None))):
        raise InvalidMapping(f"mapping 'uri_field' must be a string, got {mapping.uri_field!r}")
    if not mapping.presence_rules:
        raise InvalidMapping("mapping declares no presence rules")
    for rule in mapping.presence_rules:
        if rule.medium not in MEDIA:
            raise InvalidMapping(f"presence rule names unknown medium {rule.medium!r}")
    for rule in mapping.field_rules:
        spec = SCHEMA_FIELDS.get(rule.target)
        if spec is None:
            raise InvalidMapping(rule.target)
        if rule.transform not in TRANSFORMS:
            raise InvalidMapping(f"{rule.target}: unknown transform {rule.transform!r}")
        if rule.transform == "date-parse" and spec.kind is not DATE:
            raise InvalidMapping(f"{rule.target}: date-parse targets a non-date field")
        if rule.transform == "split-list" and spec.kind.item_type is None:
            raise InvalidMapping(f"{rule.target}: split-list targets a scalar field")
    for target in mapping.defaults:
        if target not in SCHEMA_FIELDS:
            raise InvalidMapping(target)
    covered = {rule.target for rule in mapping.field_rules} | set(mapping.defaults)
    for medium in mapping.declared_media:
        for spec in REQUIRED_FIELDS[medium]:
            if spec.path not in covered:
                raise InvalidMapping(f"{spec.path} has neither a rule nor a default")


# ---------------------------------------------------------------------------
# Transforms and generic mapping
# ---------------------------------------------------------------------------


def _parse_date(text: str) -> date:
    for parser in (date.fromisoformat, _slash_date):
        try:
            return parser(text)
        except ValueError:
            continue
    raise ValueError(f"unparseable date: {text!r}")


def _slash_date(text: str) -> date:
    parts = text.split("/")
    if len(parts) != 3:
        raise ValueError(text)
    return date(int(parts[0]), int(parts[1]), int(parts[2]))


def _split_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _coerce(path: str, value: str | tuple[str, ...]) -> object:
    """Coerce a transformed value to the kind its generic field expects."""
    kind = SCHEMA_FIELDS[path].kind
    try:
        if kind.item_type is not None:
            items = value if isinstance(value, tuple) else (value,)
            return tuple(map(parse_document_code, items)) if kind is CODES else items
        if isinstance(value, tuple):
            raise ValueError("list value for a scalar field")
        return _parse_date(value) if kind is DATE else value
    except (ValueError, MalformedCode) as exc:
        raise FieldTransformError(f"{path}: {exc}") from exc


#: Each transform's function on a raw value; ``date-parse`` leaves the value to
#: :func:`_coerce`, as for any date.
_TRANSFORMS = {
    "identity": lambda value: value,
    "lowercase": str.lower,
    "date-parse": lambda value: value,
    "split-list": _split_list,
}
TRANSFORMS = tuple(_TRANSFORMS)


def map_to_generic(raw: SourceRecord, mapping: FieldMapping) -> GenericRecord:
    """Map one raw source record into a validated :class:`GenericRecord`.

    Presence rules decide the media triple (all-false raises
    :class:`PresenceUndecidable`); field rules and defaults populate the
    descriptors; a required field left unpopulated raises
    :class:`RequiredFieldMissing` naming the generic field.
    """
    present = {
        medium: any(r.satisfied_by(raw.raw_fields)
                    for r in mapping.presence_rules if r.medium == medium)
        for medium in MEDIA
    }
    presence = MediaPresence(**present)
    if not presence.any:
        raise PresenceUndecidable(
            f"{raw.source_id}:{raw.local_id}: presence rules decide no medium")

    if mapping.uri_field and raw.raw_fields.get(mapping.uri_field):
        code = DocumentCode.for_uri(raw.raw_fields[mapping.uri_field])
    else:
        code = DocumentCode.compound(raw.source_id, raw.local_id)

    staged: dict[str, object] = {}
    for rule in mapping.field_rules:
        value = raw.raw_fields.get(rule.source)
        if value is None or value == "":
            continue
        staged[rule.target] = _coerce(rule.target, _TRANSFORMS[rule.transform](value))
    for target, value in mapping.defaults.items():
        if target not in staged:
            staged[target] = _coerce(target, value)

    values: dict[str, dict[str, object]] = {m: {} for m in MEDIA}
    for path, value in staged.items():
        spec = SCHEMA_FIELDS[path]
        if present[spec.medium]:
            values[spec.medium][spec.attribute] = value

    for medium in MEDIA:
        for spec in REQUIRED_FIELDS[medium] if present[medium] else ():
            if spec.path not in staged:
                raise RequiredFieldMissing(spec.path, f"required for {medium} and not mapped")

    record = GenericRecord(
        document_code=code,
        media_class=classify(presence),
        **{m: make_descriptor(m, values[m]) if present[m] else None for m in MEDIA},
    )
    validate_record(record).refuse(code, MappedRecordInvalid)
    return record


# ---------------------------------------------------------------------------
# Adapters
# ---------------------------------------------------------------------------


def _parse_meta_lines(lines, locator: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in lines:
        if not line:
            continue
        if "\t" not in line:
            raise ValueError(f"{locator}: line without field/value separator: {line!r}")
        name, _, value = line.partition("\t")
        fields[name] = value
    return fields


def _read_tabular(descriptor: SourceDescriptor, wanted: str | None) -> Iterator[SourceItem]:
    """Read a tabular source row by row; a row's locator is ``line N``.

    Each row is decoded on its own, so one that is not UTF-8 is a problem of its own.
    A row of the wrong width has local_id None; blank lines are skipped.
    """
    path = Path(descriptor.location)
    try:
        handle = path.open("rb")
    except OSError as exc:
        raise SourceUnreachable(f"{descriptor.source_id}: cannot open {path}: {exc}") from exc
    with handle:
        try:  # an empty file has one empty column and no rows
            header = next(handle, b"").decode("utf-8").rstrip("\r\n").split("\t")
        except UnicodeDecodeError as exc:
            raise SourceUnreachable(f"{descriptor.source_id}: header of {path} is not UTF-8: "
                                    f"{exc.reason} at byte {exc.start}") from None
        id_column = header.index("local_id") if "local_id" in header else 0
        for line_no, line in enumerate(handle, start=2):
            try:
                cells = line.decode("utf-8").rstrip("\r\n").split("\t")
            except UnicodeDecodeError as exc:
                if wanted is None:  # a row that cannot be read has no local_id to match
                    yield f"line {line_no}", None, (
                        "MalformedSourceRecord", f"not UTF-8: {exc.reason} at byte {exc.start}")
                continue
            if cells == [""]:
                continue
            local_id = cells[id_column] if len(cells) == len(header) else None
            if wanted is not None and local_id != wanted:
                continue
            if local_id is None:
                fields = ("MalformedSourceRecord",
                          f"expected {len(header)} columns, got {len(cells)}")
            elif not local_id:
                fields = ("MalformedSourceRecord", "empty local_id")
            else:
                fields = dict(zip(header, cells))
            yield f"line {line_no}", local_id, fields


def _read_file_tree(descriptor: SourceDescriptor, wanted: str | None) -> Iterator[SourceItem]:
    """Read the ``<local_id>.meta`` files directly in a directory, in local_id order."""
    root = Path(descriptor.location)
    if not root.is_dir():
        raise SourceUnreachable(f"{descriptor.source_id}: {root} is not a directory")
    if wanted is None:
        metas = sorted(root.glob("*.meta"), key=lambda p: p.stem)
    else:  # a harvest lists file names only, so an id holding "/" would leave the directory
        metas = [] if "/" in wanted else [root / f"{wanted}.meta"]
    for meta in metas:
        local_id = meta.stem
        try:
            fields = _parse_meta_lines(meta.read_text(encoding="utf-8").split("\n"), local_id)
        except (OSError, ValueError) as exc:
            fields = ("MalformedSourceRecord", str(exc))
        yield local_id, local_id, fields


class _RemoteFailure(Exception):
    """An ERR reply from a remote-line endpoint."""


class _LineClient:
    """Client side of the newline-delimited request/response protocol."""

    def __init__(self, location: str):
        host, port = _parse_endpoint(location)
        try:
            self._sock = socket.create_connection((host, port), timeout=REMOTE_TIMEOUT)
        except OSError as exc:
            raise SourceUnreachable(f"cannot connect to {host}:{port}: {exc}") from exc
        self._reader = self._sock.makefile("rb")
        self._unread = REMOTE_HARVEST_BYTES  # bytes this connection may still send

    def send(self, *commands: str) -> None:
        """Send ``commands`` without waiting; :meth:`reply` reads their replies in order."""
        try:
            self._sock.sendall("".join(f"{command}\n" for command in commands).encode("utf-8"))
        except OSError as exc:
            raise SourceUnreachable(f"remote endpoint failed: {exc}") from exc

    def reply(self) -> list[bytes]:
        """Read the next reply: its lines up to the blank line, left for the caller to decode.

        An ``ERR <msg>`` reply is a single line with no blank terminator,
        so the stream stays aligned for the next reply. A reply past a
        ``REMOTE_*`` cap raises :class:`SourceUnreachable` naming the cap.
        """
        lines: list[bytes] = []
        try:
            # ACK at once (Linux only; the kernel clears the flag again): once we
            # stop sending, the endpoint's Nagle holds its last reply for our ACK,
            # which a delayed ACK (RFC 1122) sends about 40 ms late.
            quickack = getattr(socket, "TCP_QUICKACK", None)
            if quickack is not None:
                self._sock.setsockopt(socket.IPPROTO_TCP, quickack, 1)
            while True:
                line = self._reader.readline(REMOTE_LINE_BYTES)
                self._unread -= len(line)
                if not line:
                    raise SourceUnreachable("connection closed mid-reply")
                if len(line) == REMOTE_LINE_BYTES and line[-1:] != b"\n":
                    raise SourceUnreachable(f"a reply line is over {REMOTE_LINE_BYTES} bytes")
                if self._unread < 0:
                    raise SourceUnreachable(f"replies are over {REMOTE_HARVEST_BYTES} bytes")
                line = line.rstrip(b"\n")
                if not line:
                    return lines
                if not lines and line.startswith(b"ERR "):
                    raise _RemoteFailure(line[4:].decode("utf-8", "replace"))
                if len(lines) == REMOTE_REPLY_LINES:
                    raise SourceUnreachable(f"a reply is over {REMOTE_REPLY_LINES} lines")
                lines.append(line)
        except OSError as exc:
            raise SourceUnreachable(f"remote endpoint failed: {exc}") from exc

    def close(self):
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass


def _parse_endpoint(location: str) -> tuple[str, int]:
    text = location.removeprefix("tcp://")
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise SourceUnreachable(f"remote location must be host:port, got {location!r}")
    return host, int(port)


def _read_remote_line(descriptor: SourceDescriptor, wanted: str | None) -> Iterator[SourceItem]:
    """GET each listed local_id in sorted order, or only ``wanted`` without a LIST."""
    with closing(_LineClient(descriptor.location)) as client:
        if wanted is None:
            client.send("LIST")
            try:
                listed = client.reply()
            except _RemoteFailure as exc:
                raise SourceUnreachable(f"{descriptor.source_id}: LIST failed: {exc}") from exc
            local_ids = set()
            for line_no, line in enumerate(listed, start=1):
                try:
                    local_ids.add(line.decode("utf-8"))
                except UnicodeDecodeError as exc:
                    yield f"LIST line {line_no}", None, ("MalformedSourceRecord", str(exc))
            local_ids = sorted(local_ids)
        else:  # a LIST line holds no newline, and one in ``wanted`` would send two requests
            local_ids = [] if "\n" in wanted else [wanted]
        # A sliding window of GET_WINDOW requests in flight: one more goes out
        # as each reply is read, so replies do not wait one round trip each
        # (pipelining, as in RFC 7230 §6.3.2).
        gets = (f"GET {local_id}" for local_id in local_ids)
        client.send(*islice(gets, GET_WINDOW - 1))
        for local_id in local_ids:
            client.send(*islice(gets, 1))
            try:
                fields = _parse_meta_lines([line.decode("utf-8") for line in client.reply()],
                                           local_id)
            except _RemoteFailure as exc:
                fields = ("NotFoundAtSource", str(exc))
            except ValueError as exc:
                fields = ("MalformedSourceRecord", str(exc))
            yield local_id, local_id, fields


#: One reader per adapter kind, through which ``harvest`` and ``resolve`` both
#: read. A reader yields a ``SourceItem``, ``(locator, local_id, fields)``, per
#: record in source order; ``fields`` is a ``(case, message)`` pair for a record
#: that cannot be read. Given a ``wanted`` local_id, it yields only that id.
_READERS = {
    "tabular": _read_tabular,
    "file-tree": _read_file_tree,
    "remote-line": _read_remote_line,
}
ADAPTER_KINDS = tuple(_READERS)
SourceItem = tuple[str, "str | None", "dict[str, str] | tuple[str, str]"]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class SourceRegistry:
    """Registered federated sources; concurrent reads, serialized writes."""

    def __init__(self):
        self._sources: dict[str, SourceDescriptor] = {}
        self._write_lock = threading.Lock()

    def register(self, descriptor: SourceDescriptor) -> str:
        if not (isinstance(descriptor.source_id, str)
                and SOURCE_ID_PATTERN.match(descriptor.source_id)):
            raise MalformedCode(
                f"source_id {descriptor.source_id!r} must match [a-z0-9_-]{{1,32}}")
        if descriptor.kind not in ADAPTER_KINDS:
            raise InvalidMapping(
                f"unknown adapter kind {descriptor.kind!r}; expected one of {ADAPTER_KINDS}")
        if not isinstance(descriptor.location, str):
            raise InvalidMapping(f"source location must be a string, got {descriptor.location!r}")
        if not isinstance(descriptor.enabled, bool):
            raise InvalidMapping(f"source enabled must be a bool, got {descriptor.enabled!r}")
        validate_mapping(descriptor.mapping)
        with self._write_lock:
            if descriptor.source_id in self._sources:
                raise DuplicateSource(f"source {descriptor.source_id!r} already registered")
            self._sources[descriptor.source_id] = descriptor
        return descriptor.source_id

    def get(self, source_id: str) -> SourceDescriptor:
        try:
            return self._sources[source_id]
        except KeyError:
            raise UnknownSource(f"source {source_id!r} is not registered") from None

    def list(self) -> list[SourceDescriptor]:
        return [self._sources[k] for k in sorted(self._sources)]

    def harvest(self, source_id: str) -> HarvestResult:
        """Enumerate a source's records in deterministic local_id order.

        Unreadable records and repeats of a local_id become problems, in
        source order; the first readable record with an id is the one kept.
        """
        descriptor = self.get(source_id)
        if not descriptor.enabled:
            raise SourceDisabled(f"source {source_id!r} is disabled")
        records: dict[str, SourceRecord] = {}
        problems: list[RecordProblem] = []
        for locator, local_id, fields in _READERS[descriptor.kind](descriptor, None):
            if local_id in records:
                fields = ("MalformedSourceRecord", f"duplicate local_id {local_id!r}")
            if isinstance(fields, tuple):
                problems.append(RecordProblem(locator, *fields))
            else:
                records[local_id] = SourceRecord(source_id, local_id, fields)
        ordered = tuple(records[k] for k in sorted(records))
        return HarvestResult(source_id, ordered, tuple(problems))

    def resolve(self, code: DocumentCode) -> SourceRecord:
        """Fetch the raw record behind ``code`` from its origin, as a harvest keeps it.

        URI codes are returned as a deferred-fetch record carrying only the
        URI; no content is downloaded.
        """
        if code.is_uri:
            return SourceRecord("uri", code.uri, {"uri": code.uri})
        descriptor = self.get(code.source_id)
        # closing(): the reader's file or socket is shut when resolve returns early.
        with closing(_READERS[descriptor.kind](descriptor, code.local_id)) as items:
            for _, _, fields in items:
                if not isinstance(fields, tuple):
                    return SourceRecord(code.source_id, code.local_id, fields)
        raise NotFoundAtSource(f"{code.source_id}:{code.local_id}")


def ingest_source(store: "CatalogStore", source_id: str) -> IngestReport:
    """Harvest one source, map every record, and put the results in the store.

    Per-record failures (malformed rows, mapping errors, invalid records)
    are collected in the report; they never abort the ingest.
    """
    descriptor = store.sources.get(source_id)
    result = store.sources.harvest(source_id)
    problems = list(result.problems)
    ingested: list[str] = []
    for raw in result.records:
        try:
            record = map_to_generic(raw, descriptor.mapping)
            store.put_record(record)
        except MediaCubeError as exc:
            problems.append(RecordProblem(raw.local_id, exc.case, str(exc)))
        else:
            ingested.append(str(record.document_code))
    return IngestReport(source_id, tuple(ingested), tuple(problems))


# ---------------------------------------------------------------------------
# Mapping serialization (shared by the catalog file and the CLI)
# ---------------------------------------------------------------------------


def _rule_to_dict(rule: PresenceRule | FieldRule) -> dict[str, str]:
    """A rule's JSON form: its fields, less those left at their default."""
    return {f.name: getattr(rule, f.name) for f in dataclass_fields(rule)
            if getattr(rule, f.name) != f.default}


def mapping_to_dict(mapping: FieldMapping) -> dict:
    out: dict[str, object] = {
        "presence": [_rule_to_dict(r) for r in mapping.presence_rules],
        "fields": [_rule_to_dict(r) for r in mapping.field_rules],
    }
    if mapping.defaults:
        out["defaults"] = dict(mapping.defaults)
    if mapping.uri_field:
        out["uri_field"] = mapping.uri_field
    return out


def _fields_from_json(cls, data, what: str) -> dict:
    """``cls``'s keyword arguments from the JSON object ``data``, keyed by each field's
    ``json`` metadata or name; their values are left to :func:`validate_mapping`."""
    if not isinstance(data, Mapping):
        raise InvalidMapping(f"{what} must be a JSON object, got {data!r}")
    by_key = {f.metadata.get("json", f.name): f for f in dataclass_fields(cls)}
    for key in data:
        if key not in by_key:
            raise InvalidMapping(f"{what} has unknown key {key!r}")
    for key, f in by_key.items():
        if key not in data and f.default is MISSING and f.default_factory is MISSING:
            raise InvalidMapping(f"{what} has no {key!r} key")
    return {by_key[key].name: value for key, value in data.items()}


def mapping_from_dict(data: Mapping) -> FieldMapping:
    """Build a mapping from its JSON form; :class:`InvalidMapping` if its shape is wrong."""
    values = _fields_from_json(FieldMapping, data, "a mapping")
    for f, rule in zip(dataclass_fields(FieldMapping), (PresenceRule, FieldRule)):  # rule lists
        key, entries = f.metadata["json"], values.get(f.name, [])
        if not isinstance(entries, list):
            raise InvalidMapping(f"mapping {key!r} must be a list of objects")
        values[f.name] = tuple(rule(**_fields_from_json(rule, entry, f"a {key!r} rule"))
                               for entry in entries)
    return FieldMapping(**values)


def source_to_dict(descriptor: SourceDescriptor) -> dict:
    return {
        "source_id": descriptor.source_id,
        "adapter": descriptor.kind,
        "location": descriptor.location,
        "enabled": descriptor.enabled,
        "mapping": mapping_to_dict(descriptor.mapping),
    }


def source_record_to_dict(raw: SourceRecord) -> dict:
    """The raw record behind a code, as ``resolve`` shows it."""
    return {
        "source_id": raw.source_id,
        "local_id": raw.local_id,
        "raw_fields": dict(raw.raw_fields),
    }


def source_from_dict(data: Mapping) -> SourceDescriptor:
    """Build a source from its JSON form; :class:`InvalidMapping` names a missing or
    unknown key. Its values are left to ``SourceRegistry.register``."""
    values = _fields_from_json(SourceDescriptor, data, "a source")
    return SourceDescriptor(**{**values, "mapping": mapping_from_dict(values["mapping"])})
