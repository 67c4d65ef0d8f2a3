"""``snapshot()`` hands out one shared snapshot until the next write."""

from __future__ import annotations

import json
import threading
import urllib.request
from datetime import date, datetime, timezone

import pytest

from catalog_fixtures import make_five_event_store
from mediacube import (
    CubeQuery,
    DimensionFilter,
    DocumentCode,
    GenericRecord,
    MediaClass,
    TextDescriptor,
    UsageEvent,
    UserProfile,
    cube_query,
)
from mediacube.service import make_server
from mediacube.store import CatalogStore


def _usage(context: str, user_id: str = "u1") -> UsageEvent:
    return UsageEvent(document_code=DocumentCode.compound("fx", "d1"), context=context,
                      user_id=user_id, timestamp=datetime(2024, 3, 1, tzinfo=timezone.utc),
                      use_type="occasional")


def _state(snapshot) -> tuple:
    return (snapshot.records, snapshot.events, snapshot.users, snapshot.contexts,
            snapshot.event_codes, snapshot.event_days, snapshot.event_contexts,
            snapshot.event_users, snapshot.event_ids)


def test_without_writes_the_same_snapshot_is_returned():
    store = make_five_event_store()
    first = store.snapshot()
    assert store.snapshot() is first
    store.get_record(DocumentCode.compound("fx", "d1"))
    store.list_contexts()
    assert store.snapshot() is first


WRITES = {
    "put_record": lambda store: store.put_record(GenericRecord(
        document_code=DocumentCode.compound("fx", "d3"), media_class=MediaClass.TEXT,
        text=TextDescriptor(title="D3"))),
    "register_user": lambda store: store.register_user(UserProfile(user_id="u3", name="Ida")),
    "re-register_user": lambda store: store.register_user(
        UserProfile(user_id="u2", name="Grace", social_class="teacher")),
    "record_usage_static": lambda store: store.record_usage(_usage("teaching")),
    "record_usage_novel": lambda store: store.record_usage(_usage("workshop", "u2")),
}


def _shows(name: str, snapshot) -> bool:
    if name == "put_record":
        return "fx:d3" in snapshot.record_by_code
    if name == "register_user":
        return "u3" in snapshot.user_by_id
    if name == "re-register_user":
        return snapshot.user_by_id["u2"].social_class == "teacher"
    if name == "record_usage_static":
        return len(snapshot.events) == 6 and cube_query(
            snapshot, CubeQuery(fixed=DimensionFilter(context="teaching"))).total == 4
    return ("workshop" in snapshot.context_labels
            and snapshot.event_contexts[-1] == "workshop"
            and cube_query(snapshot, CubeQuery(fixed=DimensionFilter(
                context="workshop", time=date(2024, 3, 1)))).total == 1)


@pytest.mark.parametrize("name", sorted(WRITES))
def test_a_write_shows_in_the_next_snapshot_only(name):
    store = make_five_event_store()
    before = store.snapshot()
    kept = _state(before)
    assert not _shows(name, before)
    WRITES[name](store)
    after = store.snapshot()
    assert after is not before
    assert _shows(name, after)
    assert _state(before) == kept
    assert not _shows(name, before)
    assert store.snapshot() is after


def _request(base: str, method: str, path: str, payload: dict | None = None):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(base + path, data=data, method=method,
                                     headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


@pytest.fixture
def served(five_event_catalog):
    server = make_server(CatalogStore.load(five_event_catalog), five_event_catalog, port=0)
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.02),
                              daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _post(base: str, context: str) -> int:
    status, body = _request(base, "POST", "/usage", {
        "document_code": "fx:d2", "context": context, "user_id": "u2",
        "timestamp": "2024-03-01T10:00:00Z", "use_type": "repetitive"})
    assert status == 201
    return body["event_id"]


def _total(base: str, query: str) -> int:
    status, body = _request(base, "GET", "/cube?" + query)
    assert status == 200
    assert sum(cell["count"] for cell in body["cells"]) == body["total"]
    return body["total"]


def test_interleaved_posts_and_gets_see_every_acknowledged_post(served):
    acknowledged = []
    for i in range(12):
        context = "learning" if i % 3 else f"novel-{i}"
        acknowledged.append(_post(served, context))
        assert _total(served, "user=u2") == 2 + len(acknowledged)
        assert _total(served, "time=2024-03-01&granularity=month") == len(acknowledged)
        if context.startswith("novel"):
            assert _total(served, f"context={context}") == 1
    assert acknowledged == list(range(6, 18))


def test_concurrent_clients_see_their_own_acknowledged_posts(served):
    problems: list[str] = []
    acknowledged: list[int] = []
    lock = threading.Lock()

    def client(n: int):
        try:
            for i in range(8):
                event_id = _post(served, "learning" if i % 4 else f"novel-{n}-{i}")
                with lock:
                    acknowledged.append(event_id)
                    floor = len(acknowledged)
                total = _total(served, "time=2024-03-01")
                if total < floor:
                    problems.append(f"client {n}: total {total} < {floor} acknowledged")
        except Exception as exc:  # reported through the assertion below
            problems.append(f"client {n}: {exc!r}")

    threads = [threading.Thread(target=client, args=(n,)) for n in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    assert _total(served, "time=2024-03-01") == len(acknowledged) == 24
