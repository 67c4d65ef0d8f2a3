"""Shared builders: mock federated sources and the five-event catalog."""

from __future__ import annotations

import socket
import socketserver
import threading
from datetime import datetime, timezone
from pathlib import Path

from mediacube import (
    CatalogStore,
    DocumentCode,
    FieldMapping,
    FieldRule,
    GenericRecord,
    MediaClass,
    PresenceRule,
    SourceDescriptor,
    TextDescriptor,
    UsageEvent,
    UserProfile,
)

COLOURS = ("red", "orange", "yellow", "green", "blue", "indigo", "violet",
           "grey", "black", "white")
SHAPES = ("oval", "circle", "square", "rectangle", "triangle", "cylindrical",
          "rhombus", "irregular", "line")
MEDIA = ("wood", "electronic", "paper", "glass", "stone", "plastic", "composite")
IMAGE_TYPES = ("digital image", "sketch", "cartoon")
SOUND_TYPES = ("noise", "music", "voice")


# ---------------------------------------------------------------------------
# Tabular source: a library of books (text records)
# ---------------------------------------------------------------------------

BOOK_MAPPING = FieldMapping(
    presence_rules=(PresenceRule(medium="text", field="kind", equals="book"),),
    field_rules=(
        FieldRule(source="title", target="text.title"),
        FieldRule(source="author", target="text.author"),
        FieldRule(source="summary", target="text.summary"),
        FieldRule(source="published", target="text.reference_date", transform="date-parse"),
        FieldRule(source="keywords", target="text.descriptors", transform="split-list"),
        FieldRule(source="related", target="text.related_documents", transform="split-list"),
    ),
)


def write_tabular_source(path: Path, source_id: str = "lib", count: int = 50,
                         corrupt_line: bool = False) -> SourceDescriptor:
    """Write a tab-separated book table; optionally append one bad row."""
    header = ["local_id", "kind", "title", "author", "summary", "published",
              "keywords", "related"]
    lines = ["\t".join(header)]
    for i in range(1, count + 1):
        related = f"{source_id}:b{i - 1:03d}" if i > 1 else ""
        lines.append("\t".join([
            f"b{i:03d}", "book", f"Title {i}", f"Author {i % 7}",
            f"Summary of book {i}", f"2023-{(i % 12) + 1:02d}-{(i % 27) + 1:02d}",
            "alpha, beta", related,
        ]))
        if corrupt_line and i == count // 2:
            lines.append("b999\tbook")  # wrong column count
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return SourceDescriptor(source_id=source_id, kind="tabular",
                            location=str(path), mapping=BOOK_MAPPING)


# ---------------------------------------------------------------------------
# File-tree source: an image gallery
# ---------------------------------------------------------------------------

IMAGE_MAPPING = FieldMapping(
    presence_rules=(PresenceRule(medium="image", field="colour"),),
    field_rules=(
        FieldRule(source="colour", target="image.dominant_colour", transform="lowercase"),
        FieldRule(source="shape", target="image.dominant_shape", transform="lowercase"),
        FieldRule(source="format", target="image.image_format"),
        FieldRule(source="medium", target="image.image_medium", transform="lowercase"),
        FieldRule(source="type", target="image.image_type"),
        FieldRule(source="feature", target="image.dominant_feature"),
        FieldRule(source="subclass", target="image.dominant_feature_subclass"),
    ),
)


def write_file_tree_source(root: Path, source_id: str = "gallery",
                           count: int = 50) -> SourceDescriptor:
    root.mkdir(parents=True, exist_ok=True)
    for i in range(1, count + 1):
        fields = {
            "colour": COLOURS[i % len(COLOURS)].upper(),
            "shape": SHAPES[i % len(SHAPES)],
            "format": "jpeg" if i % 2 else "png",
            "medium": MEDIA[i % len(MEDIA)],
            "type": IMAGE_TYPES[i % len(IMAGE_TYPES)],
        }
        if i % 5 == 0:
            fields["feature"] = "animal"
            fields["subclass"] = "animal-mammal"
        body = "".join(f"{name}\t{value}\n" for name, value in fields.items())
        (root / f"i{i:03d}.meta").write_text(body, encoding="utf-8")
    return SourceDescriptor(source_id=source_id, kind="file-tree",
                            location=str(root), mapping=IMAGE_MAPPING)


# ---------------------------------------------------------------------------
# Remote-line source: a sound archive behind the wire protocol
# ---------------------------------------------------------------------------

SOUND_MAPPING = FieldMapping(
    presence_rules=(PresenceRule(medium="sound", field="stype"),),
    field_rules=(
        FieldRule(source="artist", target="sound.originator"),
        FieldRule(source="stype", target="sound.sound_type", transform="lowercase"),
        FieldRule(source="when", target="sound.publication_date", transform="date-parse"),
        FieldRule(source="tags", target="sound.descriptors", transform="split-list"),
    ),
    defaults={"sound.target": "public"},
)


def sound_records(count: int = 50) -> dict[str, dict[str, str]]:
    return {
        f"s{i:03d}": {
            "artist": f"Artist {i % 9}",
            "stype": SOUND_TYPES[i % len(SOUND_TYPES)].upper(),
            "when": f"2022-{(i % 12) + 1:02d}-{(i % 27) + 1:02d}",
            "tags": "field, session",
        }
        for i in range(1, count + 1)
    }


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            command = raw.decode("utf-8").rstrip("\n")
            if command == "LIST":
                for local_id in sorted(self.server.records):
                    self.wfile.write(f"{local_id}\n".encode("utf-8"))
                self.wfile.write(b"\n")
            elif command.startswith("GET "):
                local_id = command[4:]
                fields = self.server.records.get(local_id)
                if fields is None:
                    self.wfile.write(f"ERR no such record {local_id}\n".encode("utf-8"))
                else:
                    for name, value in fields.items():
                        self.wfile.write(f"{name}\t{value}\n".encode("utf-8"))
                    self.wfile.write(b"\n")
            else:
                self.wfile.write(b"ERR unknown command\n")
            self.wfile.flush()


class LineSourceServer:
    """In-process endpoint speaking the newline-delimited source protocol."""

    def __init__(self, records: dict[str, dict[str, str]]):
        self._server = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), _LineHandler, bind_and_activate=True)
        self._server.daemon_threads = True
        self._server.records = records
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.02), daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def close(self):
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def remote_source(endpoint: str, source_id: str = "radio") -> SourceDescriptor:
    return SourceDescriptor(source_id=source_id, kind="remote-line",
                            location=endpoint, mapping=SOUND_MAPPING)


def closed_port() -> int:
    """A port nothing listens on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# ---------------------------------------------------------------------------
# The five-event catalog used across analytics, CLI, and service tests
# ---------------------------------------------------------------------------


def _utc(text: str) -> datetime:
    return datetime.fromisoformat(text).replace(tzinfo=timezone.utc)

FIVE_EVENTS = (
    ("d1", "teaching", "u1", "2024-01-01T09:00:00", "repetitive"),
    ("d1", "learning", "u2", "2024-01-01T10:00:00", "occasional"),
    ("d2", "teaching", "u1", "2024-01-02T09:00:00", "occasional"),
    ("d1", "teaching", "u1", "2024-01-02T11:00:00", "repetitive"),
    ("d2", "learning", "u2", "2024-01-02T12:00:00", "occasional"),
)


def make_five_event_store() -> CatalogStore:
    store = CatalogStore()
    for local in ("d1", "d2"):
        store.put_record(GenericRecord(
            document_code=DocumentCode.compound("fx", local),
            media_class=MediaClass.TEXT,
            text=TextDescriptor(title=local.upper()),
        ))
    store.register_user(UserProfile(user_id="u1", name="Ada", social_class="student"))
    store.register_user(UserProfile(user_id="u2", name="Grace"))
    for local, context, user_id, when, use_type in FIVE_EVENTS:
        store.record_usage(UsageEvent(
            document_code=DocumentCode.compound("fx", local),
            context=context,
            user_id=user_id,
            timestamp=_utc(when),
            use_type=use_type,
        ))
    return store


def count_record_builds(monkeypatch) -> list[str]:
    """The code of each GenericRecord built from here on, in order."""
    built, init = [], GenericRecord.__init__

    def counting(self, *args, **kwargs):
        built.append(str(kwargs["document_code"]))
        init(self, *args, **kwargs)
    monkeypatch.setattr(GenericRecord, "__init__", counting)
    return built
