"""Stateful model test: a ``CatalogStore`` driven beside a plain-dict model.

Hypothesis draws a sequence of writes (records with dangling related codes,
users, usage events in static and novel contexts, unknown users and
documents) and applies each to the store and to the model. After every step
the catalog is saved and reloaded, and the reload must equal the model; two
saves must be byte-identical. Further rules compare ``cube_query`` with the
brute-force oracle and cut the saved file inside its last line, as a torn
write would.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from mediacube import (
    CatalogStore,
    DocumentCode,
    GenericRecord,
    MediaClass,
    TextDescriptor,
    UsageEvent,
    UserProfile,
)
from mediacube.store import (
    STATIC_CONTEXTS,
    CorruptCatalog,
    UnknownDocument,
    UnknownUser,
)
from oracle import (
    WINDOW_DAYS,
    WINDOW_START,
    all_dimension_subsets,
    assert_cube_matches_oracle,
    draw_fixed,
)

LOCALS = ("d1", "d2", "d3", "é4")
USERS = ("u1", "u2", "ü3")
# Novel labels carry multi-byte UTF-8, so a torn write can cut a character.
CONTEXTS = STATIC_CONTEXTS + ("atelier-é", "研究")
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
START = datetime(WINDOW_START.year, WINDOW_START.month, WINDOW_START.day, tzinfo=timezone.utc)
# Day boundaries, where the oracle's time ranges start and end.
MIDNIGHTS = st.integers(0, WINDOW_DAYS - 1).map(lambda day: day * 86400)


def _code(local: str) -> DocumentCode:
    return DocumentCode.compound("fx", local)


class CatalogModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="catalog-model-"))
        self.path = self.dir / "catalog.jsonl"
        self.store = CatalogStore()
        self.records: dict[str, GenericRecord] = {}
        self.users: dict[str, UserProfile] = {}
        self.first_seen: dict[str, datetime] = {}  # dynamic contexts only
        self.events: list[UsageEvent] = []

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- writes ----------------------------------------------------------------

    @rule(local=st.sampled_from(LOCALS), title=st.text(min_size=1, max_size=8),
          related=st.lists(st.sampled_from(LOCALS + ("ghost",)), max_size=3, unique=True))
    def put_record(self, local, title, related):
        record = GenericRecord(
            document_code=_code(local), media_class=MediaClass.TEXT,
            text=TextDescriptor(title=title, related_documents=tuple(map(_code, related))))
        self.store.put_record(record)
        self.records[str(record.document_code)] = record

    @rule(user_id=st.sampled_from(USERS), name=st.text(min_size=1, max_size=8),
          social_class=st.sampled_from((None, "student", "teacher")))
    def register_user(self, user_id, name, social_class):
        profile = UserProfile(user_id=user_id, name=name, social_class=social_class)
        self.store.register_user(profile)
        self.users[user_id] = profile

    @rule(local=st.sampled_from(LOCALS), context=st.sampled_from(CONTEXTS),
          user_id=st.sampled_from(USERS),
          offset=st.integers(0, WINDOW_DAYS * 86400 - 1) | MIDNIGHTS,
          use_type=st.sampled_from(("repetitive", "occasional")))
    def record_usage(self, local, context, user_id, offset, use_type):
        event = UsageEvent(document_code=_code(local), context=context, user_id=user_id,
                           timestamp=START + timedelta(seconds=offset), use_type=use_type)
        if str(event.document_code) not in self.records:
            with pytest.raises(UnknownDocument):
                self.store.record_usage(event)
        elif user_id not in self.users:
            with pytest.raises(UnknownUser):
                self.store.record_usage(event)
        else:
            event_id = self.store.record_usage(event)
            assert event_id == len(self.events) + 1
            self.events.append(UsageEvent(
                event_id=event_id, document_code=event.document_code, context=context,
                user_id=user_id, timestamp=event.timestamp, use_type=use_type))
            if context not in STATIC_CONTEXTS:
                self.first_seen.setdefault(context, event.timestamp)

    # -- checks ----------------------------------------------------------------

    @precondition(lambda self: self.records and self.users)
    @rule(dims=st.sampled_from(all_dimension_subsets()), seed=st.integers(0, 2**32),
          granularity=st.sampled_from(("day", "month", "year")))
    def cube_matches_oracle(self, dims, seed, granularity):
        snapshot = self.store.snapshot()
        assert_cube_matches_oracle(snapshot, draw_fixed(random.Random(seed), snapshot, dims),
                                   granularity)

    @rule(data=st.data())
    def torn_last_line(self, data):
        """A file cut inside its last line is refused there or loads as if that line were absent."""
        saved = self._saved()
        start = saved.rindex(b"\n", 0, len(saved) - 1) + 1
        line = saved[start:-1]
        cuts = st.integers(0, len(line) - 1)
        split_chars = [i for i, byte in enumerate(line) if 0x80 <= byte < 0xC0]
        if split_chars:  # a cut before a continuation byte splits a character
            cuts |= st.sampled_from(split_chars)
        offset = start + data.draw(cuts)
        torn = self.dir / "torn.jsonl"
        torn.write_bytes(saved[:offset])
        if offset > start:
            with pytest.raises(CorruptCatalog) as err:
                CatalogStore.load(torn)
            assert err.value.line_number == saved.count(b"\n")
            return
        # The last line is the newest event, or a static context line if there
        # is none; either way the rest of the catalog is intact.
        loaded = CatalogStore.load(torn)
        self._assert_equals_model(loaded, self.events[:-1])

    @invariant()
    def reload_equals_model(self):
        first = self._saved()
        self.store.save(self.path)
        assert self.path.read_bytes() == first
        loaded = CatalogStore.load(self.path)
        self._assert_equals_model(loaded, self.events)
        assert loaded.snapshot() == self.store.snapshot()

    def _saved(self) -> bytes:
        self.store.save(self.path)
        return self.path.read_bytes()

    def _assert_equals_model(self, loaded: CatalogStore, events: list[UsageEvent]):
        snapshot = loaded.snapshot()
        assert snapshot.records == tuple(self.records[k] for k in sorted(self.records))
        assert snapshot.users == tuple(self.users[k] for k in sorted(self.users))
        dynamic = sorted(self.first_seen, key=lambda label: (self.first_seen[label], label))
        assert [c.label for c in snapshot.contexts] == sorted(STATIC_CONTEXTS) + dynamic
        assert all(c.first_seen == self.first_seen[c.label]
                   for c in snapshot.contexts if c.origin == "dynamic")
        assert snapshot.events == tuple(events)
        assert list(snapshot.event_seconds) == [
            (e.timestamp - EPOCH) // timedelta(seconds=1) for e in events]


CatalogModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
test_catalog_matches_model = CatalogModel.TestCase
