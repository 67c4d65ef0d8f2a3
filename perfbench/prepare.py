"""Seeded input generator and brute-force oracle for the benchmark.

Run as a script, it writes one workload's inputs and the expected results
into a work directory, in a process of its own so that neither its time
nor its memory counts toward the measured run:

    python3 perfbench/prepare.py --workload analyst-read --seed 1 --out DIR

The expected results come from the generated event tuples by plain
filtering and counting, never from the package's analytics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

DIMS = ("doc", "context", "user", "time")
PATTERN_DIMS = {p: tuple(d for i, d in enumerate(DIMS) if (p - 1) >> (3 - i) & 1)
                for p in range(1, 17)}
GRANULARITIES = ("day", "month", "year")
VARIANTS = ("hot", "mid", "cold")
STATIC_CONTEXTS = ("teaching", "learning", "documentation", "entertainment")
SOCIAL_CLASSES = ("student", "teacher", "researcher", None)
CLASSES = ("text", "image", "sound", "text-image", "text-sound", "image-sound",
           "text-image-sound")

COLOURS = ("red", "orange", "yellow", "green", "blue", "indigo", "violet", "grey",
           "black", "white")
SHAPES = ("oval", "circle", "square", "rectangle", "triangle", "cylindrical",
          "rhombus", "irregular", "line")
MEDIA = ("wood", "electronic", "paper", "glass", "stone", "plastic", "composite")
IMAGE_TYPES = ("digital image", "sketch", "cartoon", "water colour")
SOUND_TYPES = ("noise", "music", "voice")

SPAN_START = datetime(2023, 1, 1, tzinfo=timezone.utc)
SPAN_DAYS = 730

# Scale of each workload's generated inputs.
CURATOR = {"tabular": 8000, "file_tree": 2000, "remote": 2000, "linewise": 40,
           "bad_share": 0.01, "dangling_share": 0.01, "commands": 800}
ANALYST = {"records": 4000, "users": 500, "dynamic_contexts": 20, "events": 100_000}
USAGE = {"records": 1000, "users": 200, "dynamic_contexts": 20, "events": 10_000,
         "posts": 5000, "novel_share": 0.02}


# ---------------------------------------------------------------------------
# Oracle: rows, digests, brute-force cube and reports
# ---------------------------------------------------------------------------


def digest(rows) -> dict:
    """Fingerprint of an ordered result: rows are ``[[key...], count]``."""
    text = json.dumps(rows, separators=(",", ":"), ensure_ascii=False)
    return {"total": sum(count for _, count in rows), "cells": len(rows),
            "sha": hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]}


def event_row(code: str, context: str, user: str, when: datetime, use_type: str) -> tuple:
    day = when.strftime("%Y-%m-%d")
    return (code, context, user, day, day[:7], day[:4], use_type)


_GRAN_INDEX = {"day": 3, "month": 4, "year": 5}


def matches(row: tuple, fixed: dict) -> bool:
    return ((fixed.get("doc") is None or row[0] == fixed["doc"])
            and (fixed.get("context") is None or row[1] == fixed["context"])
            and (fixed.get("user") is None or row[2] == fixed["user"])
            and (fixed.get("time") is None or row[3] == fixed["time"]))


def cube_rows(events, fixed: dict, granularity: str) -> list:
    free = [i for i, d in enumerate(DIMS) if d not in fixed]
    free = [_GRAN_INDEX[granularity] if i == 3 else i for i in free]
    counts = Counter(tuple(row[i] for i in free) for row in events if matches(row, fixed))
    return [[list(key), n] for key, n in sorted(counts.items())]


def report_rows(events, social: dict, name: str, user: str | None = None,
                granularity: str = "day") -> list:
    if name == "importance":
        counts = Counter(row[0] for row in events)
        return [[[code], n] for code, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    if name == "interest":
        mine = [row for row in events if row[2] == user]
        contexts = sorted(Counter(row[1] for row in mine).items())
        documents = sorted(Counter(row[0] for row in mine).items())
        return ([[["context", k], n] for k, n in contexts]
                + [[["document", k], n] for k, n in documents])
    if name == "evolution":
        index = _GRAN_INDEX[granularity]
        return [[[k], n] for k, n in sorted(Counter(row[index] for row in events).items())]
    if name == "type-ratio":
        repetitive = sum(1 for row in events if row[6] == "repetitive")
        return [[["repetitive"], repetitive], [["occasional"], len(events) - repetitive]]
    counts = Counter((social.get(row[2]) or "unspecified", row[1]) for row in events)
    return [[list(k), n] for k, n in sorted(counts.items())]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def zipf_cum(n: int, s: float = 1.1) -> list[float]:
    total, cum = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank ** s
        cum.append(total)
    return cum


def draw(rng: random.Random, items: list, cum: list[float], k: int) -> list:
    return rng.choices(items, cum_weights=cum, k=k)


def iso(when: datetime) -> str:
    return when.strftime("%Y-%m-%dT%H:%M:%SZ")


def random_instant(rng: random.Random, hot_days: list[int]) -> datetime:
    """A second-precision instant in the two-year span; 30% land on hot days."""
    day = rng.choice(hot_days) if rng.random() < 0.3 else rng.randrange(SPAN_DAYS)
    return SPAN_START + timedelta(days=day, seconds=rng.randrange(86400))


def record_fields(rng: random.Random, cls: str, i: int) -> dict[str, str]:
    """Raw field values for a document of media class ``cls``."""
    fields: dict[str, str] = {}
    if "text" in cls:
        fields.update(title=f"Title {i}", author=f"Author {i % 97}",
                      summary=f"Summary of document {i}",
                      published=f"{2000 + i % 24}-{i % 12 + 1:02d}-{i % 28 + 1:02d}",
                      keywords="alpha, beta" if i % 2 else "gamma")
    if "image" in cls:
        fields.update(colour=rng.choice(COLOURS).upper(), shape=rng.choice(SHAPES),
                      format=rng.choice(("jpeg", "png")), medium=rng.choice(MEDIA),
                      itype=rng.choice(IMAGE_TYPES))
    if "sound" in cls:
        fields.update(artist=f"Artist {i % 31}", stype=rng.choice(SOUND_TYPES).upper(),
                      when=f"{2010 + i % 14}-{i % 12 + 1:02d}-{i % 28 + 1:02d}",
                      tags="field, session")
    return fields


def mapping_dict(media: tuple[str, ...]) -> dict:
    """Mapping of ``record_fields`` output; presence rules decide the class."""
    presence, fields = [], []
    if "text" in media:
        presence.append({"medium": "text", "field": "title"})
        fields += [{"source": "title", "target": "text.title"},
                   {"source": "author", "target": "text.author"},
                   {"source": "summary", "target": "text.summary"},
                   {"source": "published", "target": "text.reference_date",
                    "transform": "date-parse"},
                   {"source": "keywords", "target": "text.descriptors",
                    "transform": "split-list"},
                   {"source": "related", "target": "text.related_documents",
                    "transform": "split-list"}]
    if "image" in media:
        presence.append({"medium": "image", "field": "colour"})
        fields += [{"source": "colour", "target": "image.dominant_colour",
                    "transform": "lowercase"},
                   {"source": "shape", "target": "image.dominant_shape"},
                   {"source": "format", "target": "image.image_format"},
                   {"source": "medium", "target": "image.image_medium"},
                   {"source": "itype", "target": "image.image_type"}]
    out = {"presence": presence, "fields": fields}
    if "sound" in media:
        presence.append({"medium": "sound", "field": "stype"})
        fields += [{"source": "artist", "target": "sound.originator"},
                   {"source": "stype", "target": "sound.sound_type", "transform": "lowercase"},
                   {"source": "when", "target": "sound.publication_date",
                    "transform": "date-parse"},
                   {"source": "tags", "target": "sound.descriptors", "transform": "split-list"}]
        out["defaults"] = {"sound.target": "public"}
    return out


class EventModel:
    """Skewed draws of documents, users, contexts and instants."""

    def __init__(self, rng: random.Random, docs: list[str], users: list[str],
                 dynamic_contexts: int):
        self.rng = rng
        self.docs = rng.sample(docs, len(docs))  # popularity rank order
        self.doc_cum = zipf_cum(len(docs))
        self.users = rng.sample(users, len(users))
        self.user_cum = zipf_cum(len(users), 0.9)
        self.contexts = list(STATIC_CONTEXTS) + [f"seminar-{i:02d}"
                                                 for i in range(1, dynamic_contexts + 1)]
        weights = [50.0, 20.0, 10.0, 5.0] + [15.0 / dynamic_contexts / (i ** 0.8)
                                             for i in range(1, dynamic_contexts + 1)]
        self.context_cum = [sum(weights[:i + 1]) for i in range(len(weights))]
        self.hot_days = rng.sample(range(SPAN_DAYS), 60)

    def events(self, n: int) -> list[tuple]:
        rng = self.rng
        docs = draw(rng, self.docs, self.doc_cum, n)
        users = draw(rng, self.users, self.user_cum, n)
        contexts = draw(rng, self.contexts, self.context_cum, n)
        return [(docs[i], contexts[i], users[i], random_instant(rng, self.hot_days),
                 "repetitive" if rng.random() < 0.6 else "occasional") for i in range(n)]


def anchors(rows: list[tuple]) -> dict[str, tuple]:
    """One event per variant whose values are fixed in cube queries.

    Taking every fixed value from one existing event means no pattern comes
    back empty; the hot anchor uses the most used document and context, the
    cold one the least used document, so selectivity spans the range.
    """
    by_doc = Counter(row[0] for row in rows)
    by_context = Counter(row[1] for row in rows)
    hot_doc = min(by_doc, key=lambda c: (-by_doc[c], c))
    cold_doc = min(by_doc, key=lambda c: (by_doc[c], c))
    hot_context = min(by_context, key=lambda c: (-by_context[c], c))
    hot = next((r for r in rows if r[0] == hot_doc and r[1] == hot_context),
               next(r for r in rows if r[0] == hot_doc))
    cold = next(r for r in rows if r[0] == cold_doc)
    return {"hot": hot, "mid": rows[len(rows) // 2], "cold": cold}


def cube_specs(rows: list[tuple], with_rows: bool = True) -> list[dict]:
    """Every pattern at every granularity, fixed values cycling hot/mid/cold."""
    anchor = anchors(rows)
    specs = []
    for pattern in range(1, 17):
        for k, granularity in enumerate(GRANULARITIES):
            row = anchor[VARIANTS[(pattern + k) % 3]]
            values = dict(zip(DIMS, (row[0], row[1], row[2], row[3])))
            fixed = {d: values[d] for d in PATTERN_DIMS[pattern]}
            spec = {"pattern": pattern, "fixed": fixed, "granularity": granularity}
            result = cube_rows(rows, fixed, granularity)
            spec["expect"] = digest(result) if with_rows else {"total": digest(result)["total"]}
            specs.append(spec)
    return specs


def build_catalog(path: Path, rng: random.Random, records: int, users: int,
                  dynamic_contexts: int, events: int) -> tuple:
    """Write a catalog through the package's public API.

    Returns the event rows, each user's social class, and the event model,
    whose random stream later draws further events.
    """
    from mediacube import CatalogStore, UsageEvent, UserProfile, parse_document_code
    from mediacube.descriptors import record_from_dict

    store = CatalogStore()
    codes = []
    for i in range(records):
        cls = CLASSES[i % len(CLASSES)]
        code = f"arc:d{i:05d}"
        store.put_record(record_from_dict(generic_dict(rng, code, cls, i)))
        codes.append(code)
    social = {}
    for i in range(users):
        user_id = f"u{i:04d}"
        social[user_id] = SOCIAL_CLASSES[i % len(SOCIAL_CLASSES)]
        store.register_user(UserProfile(user_id=user_id, name=f"User {i}",
                                        social_class=social[user_id]))
    model = EventModel(rng, codes, sorted(social), dynamic_contexts)
    rows = []
    for code, context, user, when, use_type in model.events(events):
        store.record_usage(UsageEvent(document_code=parse_document_code(code),
                                      context=context, user_id=user, timestamp=when,
                                      use_type=use_type))
        rows.append(event_row(code, context, user, when, use_type))
    store.save(path)
    return rows, social, model


def generic_dict(rng: random.Random, code: str, cls: str, i: int) -> dict:
    raw = record_fields(rng, cls, i)
    out: dict = {"document_code": code, "media_class": cls}
    if "text" in cls:
        out["text"] = {"title": raw["title"], "author": raw["author"],
                       "descriptors": raw["keywords"].split(", ")}
    if "image" in cls:
        out["image"] = {"dominant_colour": raw["colour"].lower(), "dominant_shape": raw["shape"],
                        "image_format": raw["format"], "image_medium": raw["medium"],
                        "image_type": raw["itype"]}
    if "sound" in cls:
        out["sound"] = {"originator": raw["artist"], "sound_type": raw["stype"].lower(),
                        "target": "public"}
    return out


def prepare_analyst(out: Path, seed: int) -> dict:
    rng = random.Random(seed)
    rows, social, _ = build_catalog(out / "catalog.jsonl", rng, ANALYST["records"],
                                    ANALYST["users"], ANALYST["dynamic_contexts"],
                                    ANALYST["events"])
    specs = cube_specs(rows)
    anchor = anchors(rows)
    reports = [{"name": "importance"}, {"name": "type-ratio"}, {"name": "social-class"}]
    reports += [{"name": "interest", "user": anchor[v][2]} for v in VARIANTS]
    reports += [{"name": "evolution", "granularity": g} for g in GRANULARITIES]
    for report in reports:
        report["expect"] = digest(report_rows(rows, social, report["name"],
                                              report.get("user"),
                                              report.get("granularity", "day")))
    # GET /cube for every pattern that fixes a dimension, one granularity each.
    http = [3 * (p - 1) + p % 3 for p in range(2, 17)]
    return {"events": len(rows), "specs": specs, "reports": reports, "http": http}


def prepare_usage(out: Path, seed: int) -> dict:
    rng = random.Random(seed)
    rows, _, model = build_catalog(out / "catalog.jsonl", rng, USAGE["records"],
                                   USAGE["users"], USAGE["dynamic_contexts"],
                                   USAGE["events"])
    specs = [s for s in cube_specs(rows, with_rows=False) if s["pattern"] > 1]
    posts = []
    novel = 0
    for code, context, user, when, use_type in model.events(USAGE["posts"]):
        if rng.random() < USAGE["novel_share"]:
            novel += 1
            context = f"novel-{seed}-{novel}"
        posts.append({"document_code": code, "context": context, "user_id": user,
                      "timestamp": iso(when), "use_type": use_type})
    return {"events": len(rows), "specs": specs, "posts": posts}


def prepare_curator(out: Path, seed: int) -> dict:
    rng = random.Random(seed)
    sources = []
    expected_records: dict[str, dict] = {}

    # Tabular: every class, ~1% rows with a wrong column count, ~1% dangling refs.
    header = ["local_id", "title", "author", "summary", "published", "keywords", "related",
              "colour", "shape", "format", "medium", "itype", "artist", "stype", "when", "tags"]
    lines = ["\t".join(header)]
    n = CURATOR["tabular"]
    bad = set(rng.sample(range(n), round(n * CURATOR["bad_share"])))
    dangling = 0
    previous = None
    for i in range(n):
        local = f"b{i:05d}"
        if i in bad:
            lines.append(f"{local}\tbroken row")
            continue
        cls = CLASSES[rng.randrange(len(CLASSES))]
        fields = record_fields(rng, cls, i)
        if "text" in cls:
            if rng.random() < CURATOR["dangling_share"]:
                dangling += 1
                fields["related"] = f"lib:missing{i:05d}"
            elif previous:
                fields["related"] = previous
        raw = {name: fields.get(name, "") for name in header}
        raw["local_id"] = local
        lines.append("\t".join(raw[name] for name in header))
        expected_records[f"lib:{local}"] = {"class": cls, "raw": raw}
        previous = f"lib:{local}"
    (out / "lib.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    sources.append({"id": "lib", "kind": "tabular", "location": str(out / "lib.tsv"),
                    "mapping": mapping_dict(("text", "image", "sound")),
                    "harvested": n, "ingested": n - len(bad), "problems": len(bad)})

    tree = out / "gallery"
    tree.mkdir()
    for i in range(CURATOR["file_tree"]):
        cls = "text-image" if rng.random() < 0.3 else "image"
        raw = record_fields(rng, cls, i)
        local = f"g{i:05d}"
        (tree / f"{local}.meta").write_text(
            "".join(f"{k}\t{v}\n" for k, v in raw.items()), encoding="utf-8")
        expected_records[f"gallery:{local}"] = {"class": cls, "raw": raw}
    n = CURATOR["file_tree"]
    sources.append({"id": "gallery", "kind": "file-tree", "location": str(tree),
                    "mapping": mapping_dict(("text", "image")),
                    "harvested": n, "ingested": n, "problems": 0})

    remote = {}
    for source_id, prefix, n, classes in (
            ("radio", "r", CURATOR["remote"], ("sound", "text-sound", "image-sound",
                                                "text-image-sound")),
            ("slowradio", "s", CURATOR["linewise"], ("sound",))):
        records = {}
        for i in range(n):
            cls = classes[rng.randrange(len(classes))]
            raw = record_fields(rng, cls, i)
            records[f"{prefix}{i:05d}"] = raw
            expected_records[f"{source_id}:{prefix}{i:05d}"] = {"class": cls, "raw": raw}
        remote[source_id] = records
        sources.append({"id": source_id, "kind": "remote-line", "location": None,
                        "mapping": mapping_dict(("text", "image", "sound")),
                        "harvested": n, "ingested": n, "problems": 0,
                        "linewise": source_id == "slowradio"})
    for source in sources:
        path = out / f"{source['id']}.mapping.json"
        path.write_text(json.dumps(source.pop("mapping")), encoding="utf-8")
        source["mapping_file"] = str(path)
    (out / "remote.json").write_text(json.dumps(remote), encoding="utf-8")

    return {"sources": sources, "dangling": dangling,
            "commands": curator_commands(rng, expected_records)}


def curator_commands(rng: random.Random, records: dict[str, dict]) -> list[dict]:
    """The fixed command mix after ingest, each with its expected output."""
    codes = sorted(records)
    by_source: dict[str, list[str]] = {}
    for code in codes:
        by_source.setdefault(code.split(":")[0], []).append(code)
    cycle = ("user-register", "usage-log", "cube", "record-get", "report", "resolve",
             "cube", "usage-log", "report", "record-get")
    reports = ("importance", "interest", "evolution", "type-ratio", "social-class")
    hot_days = rng.sample(range(SPAN_DAYS), 5)
    users: dict[str, str | None] = {}
    events: list[tuple] = []
    commands = []
    counts = Counter()
    for i in range(CURATOR["commands"]):
        kind = cycle[i % len(cycle)]
        k = counts[kind]
        counts[kind] += 1
        cmd: dict = {"kind": kind}
        if kind == "user-register":
            user_id = f"cu{k:04d}"
            social = SOCIAL_CLASSES[k % len(SOCIAL_CLASSES)]
            users[user_id] = social
            cmd["argv"] = ["user-register", "--user-id", user_id, "--name", f"Curator {k}"]
            if social:
                cmd["argv"] += ["--social-class", social]
            cmd["expect"] = user_id
        elif kind == "usage-log":
            code = rng.choice(codes[:50]) if rng.random() < 0.5 else rng.choice(codes)
            context = (f"novel-{k}" if rng.random() < 0.05
                       else rng.choice(STATIC_CONTEXTS[:2] if rng.random() < 0.7
                                       else STATIC_CONTEXTS))
            user = rng.choice(sorted(users))
            when = random_instant(rng, hot_days)
            use_type = rng.choice(("repetitive", "occasional"))
            events.append(event_row(code, context, user, when, use_type))
            cmd["argv"] = ["usage-log", "--doc", code, "--context", context, "--user", user,
                           "--time", iso(when), "--type", use_type]
            cmd["expect"] = str(len(events))
        elif kind == "cube":
            pattern = k % 16 + 1
            granularity = GRANULARITIES[k % 3]
            row = events[rng.randrange(len(events))]
            values = dict(zip(DIMS, (row[0], row[1], row[2], row[3])))
            fixed = {d: values[d] for d in PATTERN_DIMS[pattern]}
            cmd["argv"] = ["cube", "--granularity", granularity]
            for d, v in fixed.items():
                cmd["argv"] += ["--fix", f"{d}={v}"]
            cmd["expect"] = digest(cube_rows(events, fixed, granularity))
        elif kind == "report":
            name = reports[k % len(reports)]
            granularity = GRANULARITIES[k % 3]
            user = events[rng.randrange(len(events))][2]
            cmd["argv"] = ["report", name]
            if name == "interest":
                cmd["argv"] += ["--user", user]
            if name == "evolution":
                cmd["argv"] += ["--granularity", granularity]
            cmd["expect"] = digest(report_rows(events, users, name, user, granularity))
        elif kind == "record-get":
            code = rng.choice(codes)
            cmd["argv"] = ["record-get", code]
            cmd["expect"] = {"document_code": code, "media_class": records[code]["class"]}
        else:  # resolve: each source in turn
            source = sorted(by_source)[k % len(by_source)]
            code = rng.choice(by_source[source])
            cmd["argv"] = ["resolve", code]
            cmd["expect"] = {"source_id": source, "local_id": code.split(":", 1)[1],
                             "raw_fields": records[code]["raw"]}
        commands.append(cmd)
    return commands


PREPARERS = {"curator-cli": prepare_curator, "analyst-read": prepare_analyst,
             "usage-write-mix": prepare_usage}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PREPARERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    args.out.mkdir(parents=True, exist_ok=True)
    plan = PREPARERS[args.workload](args.out, args.seed)
    (args.out / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
