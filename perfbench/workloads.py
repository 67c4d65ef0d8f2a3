"""The three benchmark workloads, driven only through public entry points.

Each workload takes the plan written by ``prepare.py`` and a fresh work
directory, sets up, runs its closed loop for the given number of seconds,
checks every output against the plan's expected results, and returns an
``Outcome``. Timings use ``time.perf_counter`` and cover only calls into
the package (or HTTP requests to it); checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import shutil
import socketserver
import statistics
import threading
import urllib.parse
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from time import perf_counter

import mediacube.analytics
import mediacube.cli
from mediacube import CatalogStore, CubeQuery, DimensionFilter, parse_document_code
from mediacube.service import make_server

from prepare import digest, event_row, matches
from tracing import percentile

# Set-up is repeated and its median reported, so one slow repetition does not move it.
SETUP_REPEATS = {"curator-cli": 15, "analyst-read": 5, "usage-write-mix": 15}
# curator-cli ingests into this many of its set-up catalogs, one after another.
INGEST_SESSIONS = 2
HTTP_CLIENTS = 2
FILTER_NAMES = {"doc": "document", "context": "context", "user": "user", "time": "time"}


@dataclass
class Outcome:
    setup_s: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)  # the operation mix, in the order run
    work_ms: list[float] = field(default_factory=list)  # all timed calls, for overhead
    throughput_per_s: float = 0.0
    named: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    body_bytes: list[int] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a false ``ok`` counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def name(self, metric: str, values: list[float], unit: str, q: float | None = None):
        if not values:
            value = 0.0
        else:
            value = statistics.median(values) if q is None else percentile(values, q)
        self.named[metric] = (value, unit, len(values))


def _pct_metrics(outcome: Outcome, stem: str, values: list[float]) -> None:
    """Median and the highest of p90/p75 with ten samples beyond it."""
    outcome.name(f"{stem}_p50_ms", values, "ms")
    if len(values) >= 100:
        outcome.name(f"{stem}_p90_ms", values, "ms", 0.9)
    elif len(values) >= 40:
        outcome.name(f"{stem}_p75_ms", values, "ms", 0.75)


def _rows_from_lines(lines: list[str]) -> list:
    rows = []
    for line in lines:
        *key, count = line.split("\t")
        rows.append([key, int(count)])
    return rows


def _filter(fixed: dict) -> DimensionFilter:
    values = {}
    for dim, value in fixed.items():
        if dim == "doc":
            value = parse_document_code(value)
        elif dim == "time":
            value = date.fromisoformat(value)
        values[FILTER_NAMES[dim]] = value
    return DimensionFilter(**values)


# ---------------------------------------------------------------------------
# Servers: the remote-line stand-ins and the catalog's HTTP service
# ---------------------------------------------------------------------------


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            command = raw.decode("utf-8").rstrip("\n")
            if command == "LIST":
                lines = [f"{k}\n" for k in sorted(self.server.records)]
            elif command.startswith("GET ") and command[4:] in self.server.records:
                fields = self.server.records[command[4:]]
                lines = [f"{k}\t{v}\n" for k, v in fields.items()]
            else:
                self.wfile.write(f"ERR {command}\n".encode("utf-8"))
                continue
            lines.append("\n")
            if self.server.linewise:
                for line in lines:  # one write per line, as many simple servers do
                    self.wfile.write(line.encode("utf-8"))
            else:
                self.wfile.write("".join(lines).encode("utf-8"))


class LineServer:
    """A remote-line endpoint; ``linewise`` writes each reply line separately."""

    def __init__(self, records: dict, linewise: bool):
        self._server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _LineHandler)
        self._server.records = records
        self._server.linewise = linewise
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05})
        self._thread.start()
        host, port = self._server.server_address[:2]
        self.endpoint = f"{host}:{port}"

    def close(self):
        self._server.shutdown()
        self._server.server_close()  # joins the handler threads
        self._thread.join()


class Served:
    """The catalog's HTTP service on a loopback port, in this process."""

    def __init__(self, server, tracer):
        self.server = server
        server.post_lock = tracer.wrap_lock(server.post_lock)
        self.port = server.server_address[1]
        self._thread = threading.Thread(target=server.serve_forever,
                                        kwargs={"poll_interval": 0.05})
        self._thread.start()

    def request(self, method: str, path: str, body: bytes | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self._thread.join()


def _setup_server(outcome: Outcome, catalog: Path, repeats: int, tracer):
    """Load the catalog and bind the service ``repeats`` times; keep the last."""
    server = None
    for _ in range(repeats):
        if server is not None:
            server.server_close()
        t0 = perf_counter()
        store = CatalogStore.load(catalog)
        server = make_server(store, catalog, port=0)
        outcome.setup_s.append(perf_counter() - t0)
    return Served(server, tracer)


def _cube_path(spec: dict) -> str:
    params = [(d, v) for d, v in spec["fixed"].items()]
    params.append(("granularity", spec["granularity"]))
    return "/cube?" + urllib.parse.urlencode(params)


def _http_cube_rows(body: bytes) -> tuple[int, int, list]:
    data = json.loads(body)
    free = data["free_dimensions"]
    rows = [[[cell["key"][d] for d in free], cell["count"]] for cell in data["cells"]]
    return data["pattern"], data["total"], rows


# ---------------------------------------------------------------------------
# curator-cli
# ---------------------------------------------------------------------------


def _cli(argv: list[str], tracer) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with tracer.span("cli.main", command=argv[2]):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            code = mediacube.cli.main(argv)
            ms = (perf_counter() - t0) * 1000.0
    return code, out.getvalue(), err.getvalue(), ms


def curator_cli(plan: dict, work: Path, inputs: Path, seconds: float, tracer) -> Outcome:
    outcome = Outcome()
    remote = json.loads((inputs / "remote.json").read_text(encoding="utf-8"))
    servers = {}
    try:
        for source in plan["sources"]:
            if source["kind"] == "remote-line":
                servers[source["id"]] = LineServer(remote[source["id"]], source["linewise"])
                source["location"] = servers[source["id"]].endpoint
        _curator_session(outcome, plan, work, seconds, tracer)
    finally:
        for server in servers.values():
            server.close()
    return outcome


def _curator_session(outcome: Outcome, plan: dict, work: Path, seconds: float, tracer):
    catalogs = []
    for rep in range(SETUP_REPEATS["curator-cli"]):
        catalogs.append(str(work / f"catalog-{rep}.jsonl"))
        t0 = perf_counter()
        codes = [_cli(["--catalog", catalogs[-1], "source-register", "--source-id", s["id"],
                       "--kind", s["kind"], "--location", s["location"],
                       "--mapping", s["mapping_file"]], tracer)[0]
                 for s in plan["sources"]]
        outcome.setup_s.append(perf_counter() - t0)
        outcome.check(codes == [0] * len(codes), f"source-register exit codes {codes}")

    deadline = perf_counter() + seconds
    ingest_ms, ingested = [], 0
    for catalog in catalogs[:INGEST_SESSIONS]:
        for source in plan["sources"]:
            code, out, err, ms = _cli(["--catalog", catalog, "ingest", source["id"]], tracer)
            ingest_ms.append(ms)
            expected = f"ingested {source['ingested']} records from {source['id']}\n"
            problems = (f"{source['problems']} record problem(s)" if source["problems"]
                        else None)
            last_err = err.strip().rsplit("\n", 1)[-1] if err.strip() else None
            if outcome.check(code == 0 and out == expected and last_err == problems,
                             f"ingest {source['id']}: {code} {out!r} {last_err!r}"):
                ingested += source["ingested"]
    outcome.throughput_per_s = ingested / (sum(ingest_ms) / 1000.0)
    outcome.named["ingest_records_per_s"] = (outcome.throughput_per_s, "1/s", len(ingest_ms))
    outcome.work_ms += ingest_ms

    reads, writes = [], []
    for command in plan["commands"]:
        if outcome.latencies_ms and perf_counter() >= deadline:
            break
        code, out, err, ms = _cli(["--catalog", catalog] + command["argv"], tracer)
        outcome.latencies_ms.append(ms)
        kind = command["kind"]
        if kind == "usage-log":
            writes.append(ms)
        elif kind != "user-register":
            reads.append(ms)
        try:
            ok = code == 0 and _cli_output_ok(kind, out, command["expect"])
        except (ValueError, KeyError, IndexError) as exc:
            ok, err = False, repr(exc)
        outcome.check(ok, f"{' '.join(command['argv'])}: exit {code} {err.strip()[:200]}")
    outcome.work_ms += outcome.latencies_ms
    outcome.name("cli_write_p50_ms", writes, "ms")
    outcome.name("cli_read_p50_ms", reads, "ms")


def _cli_output_ok(kind: str, out: str, expect) -> bool:
    if kind in ("user-register", "usage-log"):
        return out.strip() == expect
    if kind == "cube":
        lines = out.rstrip("\n").split("\n")
        rows = _rows_from_lines(lines[1:-1])
        return lines[-1] == f"TOTAL\t{expect['total']}" and digest(rows) == expect
    if kind == "report":
        return digest(_rows_from_lines(out.rstrip("\n").split("\n"))) == expect
    data = json.loads(out)
    if kind == "record-get":
        return {k: data[k] for k in ("document_code", "media_class")} == expect
    return data == expect


# ---------------------------------------------------------------------------
# analyst-read
# ---------------------------------------------------------------------------


def _interleave(groups: list[list]) -> list:
    """Merge the groups so that every prefix holds each in proportion."""
    keyed = [((i + 0.5) / len(g), n, item) for n, g in enumerate(groups)
             for i, item in enumerate(g)]
    return [item for _, _, item in sorted(keyed, key=lambda t: (t[0], t[1]))]


def _result_rows(kind: str, result) -> list:
    if kind == "cube":
        return [[list(c.key), c.count] for c in result.cells]
    if kind == "importance":
        return [[[code], n] for code, n in result]
    if kind == "interest":
        return ([[["context", k], n] for k, n in result.contexts.items()]
                + [[["document", k], n] for k, n in result.documents.items()])
    if kind == "evolution":
        return [[[k], n] for k, n in result]
    if kind == "type-ratio":
        return [[["repetitive"], result.repetitive], [["occasional"], result.occasional]]
    return [[list(k), n] for k, n in result.items()]


def _run_report(snapshot, report: dict):
    analytics = mediacube.analytics
    name = report["name"]
    if name == "importance":
        return analytics.document_importance(snapshot)
    if name == "interest":
        return analytics.user_interest(snapshot, report["user"])
    if name == "evolution":
        return analytics.usage_evolution(snapshot, report["granularity"])
    if name == "type-ratio":
        return analytics.usage_type_ratio(snapshot)
    return analytics.context_by_social_class(snapshot)


def analyst_read(plan: dict, work: Path, inputs: Path, seconds: float, tracer) -> Outcome:
    outcome = Outcome()
    served = _setup_server(outcome, inputs / "catalog.jsonl",
                           SETUP_REPEATS["analyst-read"], tracer)
    store = served.server.store
    try:
        ops = _interleave([[("cube", s) for s in plan["specs"]],
                           [("report", r) for r in plan["reports"]],
                           [("http", plan["specs"][i]) for i in plan["http"]]])
        timings = {"cube": [], "report": [], "http": []}
        deadline = perf_counter() + seconds
        while not outcome.attempted or perf_counter() < deadline:
            for kind, item in ops:
                if outcome.attempted and perf_counter() >= deadline:
                    break
                try:
                    ms, ok = _analyst_op(kind, item, store, served, outcome, tracer)
                except Exception as exc:  # a broken result counts as failed; the loop goes on
                    outcome.check(False, f"{kind} {item}: {exc!r}")
                    continue
                timings[kind].append(ms)
                outcome.latencies_ms.append(ms)
                outcome.check(ok, f"{kind} {item}")
    finally:
        served.close()
    outcome.work_ms = outcome.latencies_ms
    outcome.throughput_per_s = len(outcome.latencies_ms) / (sum(outcome.latencies_ms) / 1000.0)
    _pct_metrics(outcome, "cube_query", timings["cube"])
    outcome.name("report_p50_ms", timings["report"], "ms")
    _pct_metrics(outcome, "http_cube", timings["http"])
    return outcome


def _analyst_op(kind, item, store, served, outcome, tracer) -> tuple[float, bool]:
    if kind == "http":
        t0 = perf_counter()
        status, body = served.request("GET", _cube_path(item))
        ms = (perf_counter() - t0) * 1000.0
        outcome.body_bytes.append(len(body))
        if status != 200:
            return ms, False
        pattern, total, rows = _http_cube_rows(body)
        return ms, pattern == item["pattern"] and digest(rows) == item["expect"]
    with tracer.span(f"bench.{kind}"):
        t0 = perf_counter()
        snapshot = store.snapshot()
        if kind == "cube":
            query = CubeQuery(fixed=_filter(item["fixed"]),
                              time_granularity=item["granularity"])
            result = mediacube.analytics.cube_query(snapshot, query)
        else:
            result = _run_report(snapshot, item)
        ms = (perf_counter() - t0) * 1000.0
    rows = _result_rows("cube" if kind == "cube" else item["name"], result)
    ok = digest(rows) == item["expect"]
    if kind == "cube":
        ok = ok and result.pattern == item["pattern"] and result.total == item["expect"]["total"]
    return ms, ok


# ---------------------------------------------------------------------------
# usage-write-mix
# ---------------------------------------------------------------------------


class _PostLedger:
    """Which posts were sent and acknowledged, for bounding GET totals."""

    def __init__(self):
        self.lock = threading.Lock()
        self.sent = 0  # posts are claimed in index order
        self.acked: list[tuple[int, int]] = []  # (post index, event id)
        self.gets = 0


def usage_write_mix(plan: dict, work: Path, inputs: Path, seconds: float, tracer) -> Outcome:
    outcome = Outcome()
    catalog = work / "catalog.jsonl"
    shutil.copyfile(inputs / "catalog.jsonl", catalog)
    posts = plan["posts"]
    post_rows = [event_row(p["document_code"], p["context"], p["user_id"],
                           datetime.strptime(p["timestamp"], "%Y-%m-%dT%H:%M:%SZ")
                           .replace(tzinfo=timezone.utc), p["use_type"]) for p in posts]
    bodies = [json.dumps(p).encode("utf-8") for p in posts]
    ledger = _PostLedger()
    timings = {"post": [], "get": []}
    served = _setup_server(outcome, catalog, SETUP_REPEATS["usage-write-mix"], tracer)
    deadline = perf_counter() + seconds
    wall0 = perf_counter()
    try:
        clients = [threading.Thread(target=_usage_client,
                                    args=(served, plan, bodies, post_rows, ledger, timings,
                                          outcome, deadline))
                   for _ in range(HTTP_CLIENTS)]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        wall = perf_counter() - wall0
    finally:
        served.close()

    done = len(timings["post"]) + len(timings["get"])
    outcome.throughput_per_s = done / wall
    outcome.latencies_ms = timings["post"] + timings["get"]
    outcome.work_ms = timings["post"]
    _pct_metrics(outcome, "http_usage", timings["post"])
    _pct_metrics(outcome, "http_cube", timings["get"])
    outcome.named["http_ops_per_s"] = (outcome.throughput_per_s, "1/s", done)
    _check_reloaded(outcome, catalog, plan, posts, ledger)
    return outcome


def _usage_client(served, plan, bodies, post_rows, ledger, timings, outcome, deadline):
    step = 0
    while not step or perf_counter() < deadline:
        try:
            if step % 4 < 3:
                _post(served, bodies, ledger, timings, outcome)
            else:
                _get(served, plan["specs"], post_rows, ledger, timings, outcome)
        except Exception as exc:  # a broken reply counts as failed; the client goes on
            with ledger.lock:
                outcome.check(False, f"client step {step}: {exc!r}")
        step += 1


def _post(served, bodies, ledger, timings, outcome):
    with ledger.lock:
        index = ledger.sent
        ledger.sent += 1
    t0 = perf_counter()
    status, body = served.request("POST", "/usage", bodies[index])
    ms = (perf_counter() - t0) * 1000.0
    event_id = json.loads(body)["event_id"] if status == 201 else None
    with ledger.lock:
        timings["post"].append(ms)
        if event_id is not None:
            ledger.acked.append((index, event_id))
        outcome.check(event_id is not None, f"POST /usage {index}: {status} {body[:200]!r}")


def _get(served, specs, post_rows, ledger, timings, outcome):
    with ledger.lock:
        spec = specs[ledger.gets % len(specs)]
        ledger.gets += 1
        before = [i for i, _ in ledger.acked]
    t0 = perf_counter()
    status, body = served.request("GET", _cube_path(spec))
    ms = (perf_counter() - t0) * 1000.0
    with ledger.lock:
        claimed = ledger.sent
        timings["get"].append(ms)
        outcome.body_bytes.append(len(body))
    ok = status == 200
    if ok:
        pattern, total, rows = _http_cube_rows(body)
        base = spec["expect"]["total"]
        fixed = spec["fixed"]
        low = base + sum(1 for i in before if matches(post_rows[i], fixed))
        high = base + sum(1 for i in range(claimed) if matches(post_rows[i], fixed))
        ok = (pattern == spec["pattern"] and low <= total <= high
              and sum(count for _, count in rows) == total)
    with ledger.lock:
        outcome.check(ok, f"GET {_cube_path(spec)}: {status}")


def _check_reloaded(outcome: Outcome, catalog: Path, plan: dict, posts: list,
                    ledger: _PostLedger) -> None:
    """The file holds exactly the starting events plus every acknowledged post."""
    events = CatalogStore.load(catalog).snapshot().events
    ids = [e.event_id for e in events]
    by_id = {e.event_id: e for e in events}
    ok = len(events) == plan["events"] + len(ledger.acked) and len(set(ids)) == len(ids)
    for index, event_id in ledger.acked:
        event, post = by_id.get(event_id), posts[index]
        ok = ok and event is not None and (
            str(event.document_code), event.context, event.user_id,
            event.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"), event.use_type) == (
            post["document_code"], post["context"], post["user_id"], post["timestamp"],
            post["use_type"])
    outcome.check(ok, f"reloaded catalog: {len(events)} events, expected "
                      f"{plan['events']} + {len(ledger.acked)} acknowledged")


WORKLOADS = {"curator-cli": curator_cli, "analyst-read": analyst_read,
             "usage-write-mix": usage_write_mix}

# Layers each workload must spend time in; a traced run that misses one fails.
BUSY_LAYERS = {"curator-cli": ("federation", "descriptors", "store", "analytics", "cli"),
               "analyst-read": ("store", "analytics", "service"),
               "usage-write-mix": ("store", "analytics", "service")}

# Which source is which harvest kind, for the per-kind harvest figures.
SOURCE_KINDS = {"lib": "tabular", "gallery": "file-tree", "radio": "remote-line",
                "slowradio": "remote-line-linewise"}
