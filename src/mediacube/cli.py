"""Command-line front end for catalog ingestion, logging, and reporting.

Exit code 0 means success. On an error the case name and message go to
standard error, and the exit code comes from ``errors.ERROR_TABLE``: 2 for a
usage error, 1 for any other domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import analytics, service
from .codes import parse_document_code
from .descriptors import record_to_dict
from .errors import BadRequest, MediaCubeError, exit_code
from .federation import (ADAPTER_KINDS, SourceDescriptor, ingest_source, mapping_from_dict,
                         source_record_to_dict)
from .store import (USE_TYPES, CatalogStore, StorageIO, UserProfile, format_timestamp,
                    parse_usage_event, read_json)

CATALOG_ENV = "MEDIACUBE_CATALOG"


def _catalog_path(args: argparse.Namespace) -> Path:
    path = args.catalog or os.environ.get(CATALOG_ENV)
    if not path:
        raise BadRequest(f"no catalog path: pass --catalog or set {CATALOG_ENV}")
    return Path(path)


def _open_store(args: argparse.Namespace, create: bool = False) -> tuple[CatalogStore, Path]:
    path = _catalog_path(args)
    if path.exists():
        return CatalogStore.load(path), path
    if create:
        return CatalogStore(), path
    raise StorageIO(f"no catalog at {path}")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2)


# -- command handlers --------------------------------------------------------


def _cmd_source_register(args) -> int:
    store, path = _open_store(args, create=True)
    try:
        mapping_data = read_json(Path(args.mapping).read_bytes())
    except OSError as exc:
        raise StorageIO(f"cannot read mapping file: {exc}") from exc
    descriptor = SourceDescriptor(
        source_id=args.source_id,
        kind=args.kind,
        location=args.location,
        mapping=mapping_from_dict(mapping_data),
        enabled=not args.disabled,
    )
    store.sources.register(descriptor)
    store.save(path)
    print(descriptor.source_id)
    return 0


def _cmd_ingest(args) -> int:
    store, path = _open_store(args)
    report = ingest_source(store, args.source_id)
    store.save(path)
    print(f"ingested {len(report.ingested)} records from {report.source_id}")
    for problem in report.problems:
        print(f"{problem.locator}\t{problem.case}\t{problem.message}", file=sys.stderr)
    if report.problems:
        print(f"{len(report.problems)} record problem(s)", file=sys.stderr)
    return 0


def _cmd_record_get(args) -> int:
    store, _ = _open_store(args)
    record = store.get_record(parse_document_code(args.code))
    print(_dump_json(record_to_dict(record)))
    return 0


def _cmd_resolve(args) -> int:
    store, _ = _open_store(args)
    raw = store.sources.resolve(parse_document_code(args.code))
    print(_dump_json(source_record_to_dict(raw)))
    return 0


def _cmd_user_register(args) -> int:
    store, path = _open_store(args, create=True)
    store.register_user(UserProfile(
        user_id=args.user_id,
        name=args.name,
        address=args.address,
        social_class=args.social_class,
    ))
    store.save(path)
    print(args.user_id)
    return 0


def _cmd_usage_log(args) -> int:
    store, path = _open_store(args)
    fields = {"document_code": args.doc, "context": args.context,
              "user_id": args.user, "use_type": args.type}
    if args.time is not None:
        fields["timestamp"] = args.time
    print(store.record_usage_and_save(parse_usage_event(fields), path))
    return 0


def _cmd_contexts(args) -> int:
    store, _ = _open_store(args)
    for entry in store.list_contexts():
        print(f"{entry.label}\t{entry.origin}\t{format_timestamp(entry.first_seen)}")
    return 0


def _cmd_cube(args) -> int:
    store, _ = _open_store(args)
    fixes = [fix.partition("=")[::2] for fix in args.fix or ()]
    query = analytics.parse_query([*fixes, ("granularity", args.granularity)])
    result = analytics.cube_query(store.snapshot(), query)
    sys.stdout.write(result.to_tsv())
    return 0


def _cmd_report(args) -> int:
    store, _ = _open_store(args)
    analytics.check_granularity(args.granularity)
    snapshot = store.snapshot()
    if args.name == "importance":
        for code, count in analytics.document_importance(snapshot):
            print(f"{code}\t{count}")
    elif args.name == "interest":
        if not args.user:
            raise BadRequest("report interest requires --user")
        interest = analytics.user_interest(snapshot, args.user)
        for label, count in interest.contexts.items():
            print(f"context\t{label}\t{count}")
        for code, count in interest.documents.items():
            print(f"document\t{code}\t{count}")
    elif args.name == "evolution":
        for bucket, count in analytics.usage_evolution(snapshot, args.granularity):
            print(f"{bucket}\t{count}")
    elif args.name == "type-ratio":
        ratio = analytics.usage_type_ratio(snapshot)
        print(f"repetitive\t{ratio.repetitive}")
        print(f"occasional\t{ratio.occasional}")
    else:  # social-class
        for (social, context), count in analytics.context_by_social_class(snapshot).items():
            print(f"{social}\t{context}\t{count}")
    return 0


def _cmd_save(args) -> int:
    store, _ = _open_store(args)
    store.save(args.to)
    return 0


def _cmd_load(args) -> int:
    store = CatalogStore.load(args.source)
    path = _catalog_path(args)
    store.save(path)
    snapshot = store.snapshot()
    print(f"loaded {len(snapshot.record_by_code)} records, {snapshot.rows} events, "
          f"{len(snapshot.users)} users, {len(snapshot.contexts)} contexts")
    return 0


def _cmd_serve(args) -> int:
    store, path = _open_store(args)
    try:
        server = service.make_server(store, path, host=args.host, port=args.port)
    except OSError as exc:
        print(f"cannot serve on {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    host, port = server.server_address[:2]
    print(f"serving catalog {path} on http://{host}:{port}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mediacube",
        description="Federated multimedia metadata catalog with usage-cube analytics.",
    )
    parser.add_argument("--catalog", help=f"catalog file path (or set {CATALOG_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("source-register", help="register a federated source")
    p.add_argument("--source-id", required=True)
    p.add_argument("--kind", required=True, choices=ADAPTER_KINDS)
    p.add_argument("--location", required=True, help="file, directory, or host:port")
    p.add_argument("--mapping", required=True, help="JSON file with the field mapping")
    p.add_argument("--disabled", action="store_true")
    p.set_defaults(func=_cmd_source_register)

    p = sub.add_parser("ingest", help="harvest one source into the catalog")
    p.add_argument("source_id")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("record-get", help="print one generic record")
    p.add_argument("code")
    p.set_defaults(func=_cmd_record_get)

    p = sub.add_parser("resolve", help="fetch the full source record behind a code")
    p.add_argument("code")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("user-register", help="register or update a user profile")
    p.add_argument("--user-id", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--address")
    p.add_argument("--social-class")
    p.set_defaults(func=_cmd_user_register)

    p = sub.add_parser("usage-log", help="append one usage event")
    p.add_argument("--doc", required=True, help="document code")
    p.add_argument("--context", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--time", help="UTC instant, only YYYY-MM-DDThh:mm:ssZ; default now")
    p.add_argument("--type", required=True, choices=USE_TYPES)
    p.set_defaults(func=_cmd_usage_log)

    p = sub.add_parser("contexts", help="list context registry entries")
    p.set_defaults(func=_cmd_contexts)

    p = sub.add_parser("cube", help="run one cross-analysis cube query")
    p.add_argument("--fix", action="append", metavar="DIM=VALUE",
                   help=f"fix a dimension; DIM is one of {', '.join(analytics.FILTER_NAMES)}; "
                        f"time values use {analytics.TIME_GRAMMAR}")
    p.add_argument("--granularity", default="day",
                   help=f"one of {', '.join(analytics.GRANULARITIES)}")
    p.set_defaults(func=_cmd_cube)

    p = sub.add_parser("report", help="run a derived usage report")
    p.add_argument("name", choices=["importance", "interest", "evolution",
                                    "type-ratio", "social-class"])
    p.add_argument("--user", help="user id (report interest)")
    p.add_argument("--granularity", default="day",
                   help=f"one of {', '.join(analytics.GRANULARITIES)} (report evolution)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("save", help="write the catalog's canonical form to a path")
    p.add_argument("--to", required=True)
    p.set_defaults(func=_cmd_save)

    p = sub.add_parser("load", help="replace the catalog with another catalog file")
    p.add_argument("--from", dest="source", required=True)
    p.set_defaults(func=_cmd_load)

    p = sub.add_parser("serve", help="run the HTTP query service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8470)
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: usage error or --help
        return int(exc.code or 0)
    except MediaCubeError as exc:
        print(f"{exc.case}: {exc}", file=sys.stderr)
        return exit_code(exc)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
