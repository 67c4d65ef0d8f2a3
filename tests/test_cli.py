from __future__ import annotations

import json

import pytest

from catalog_fixtures import write_tabular_source
from mediacube.cli import main
from mediacube.federation import mapping_to_dict
from mediacube.store import CatalogStore


def run(*argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cube_pattern5_fixture(five_event_catalog, capsys):
    code, out, _ = run("--catalog", str(five_event_catalog),
                       "cube", "--fix", "context=teaching", capsys=capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "document\tuser\ttime\tcount"
    assert lines[-1] == "TOTAL\t3"
    assert len(lines) == 5


def test_cube_malformed_time_is_usage_error(five_event_catalog, capsys):
    code, _, err = run("--catalog", str(five_event_catalog),
                       "cube", "--fix", "time=2024-13-01", capsys=capsys)
    assert code == 2
    assert "YYYY-MM-DD" in err


def test_cube_unknown_dimension_is_usage_error(five_event_catalog, capsys):
    code, _, err = run("--catalog", str(five_event_catalog),
                       "cube", "--fix", "colour=red", capsys=capsys)
    assert code == 2


def test_cube_time_range(five_event_catalog, capsys):
    code, out, _ = run(
        "--catalog", str(five_event_catalog), "cube",
        "--fix", "time=2024-01-01T00:00:00Z/2024-01-02T00:00:00Z", capsys=capsys)
    assert code == 0
    assert out.splitlines()[-1] == "TOTAL\t2"


def test_resolve_unknown_source(five_event_catalog, capsys):
    code, _, err = run("--catalog", str(five_event_catalog),
                       "resolve", "s99:x", capsys=capsys)
    assert code == 1
    assert "UnknownSource" in err


def test_record_get(five_event_catalog, capsys):
    code, out, _ = run("--catalog", str(five_event_catalog),
                       "record-get", "fx:d1", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["document_code"] == "fx:d1"
    assert data["media_class"] == "text"


def test_record_get_missing(five_event_catalog, capsys):
    code, _, err = run("--catalog", str(five_event_catalog),
                       "record-get", "fx:ghost", capsys=capsys)
    assert code == 1
    assert "RecordNotFound" in err


def test_unknown_command_is_usage_error(five_event_catalog, capsys):
    code, _, _ = run("--catalog", str(five_event_catalog), "frobnicate", capsys=capsys)
    assert code == 2


def test_missing_catalog_path_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("MEDIACUBE_CATALOG", raising=False)
    code, _, err = run("contexts", capsys=capsys)
    assert code == 2
    assert "MEDIACUBE_CATALOG" in err


def test_env_var_supplies_catalog(five_event_catalog, capsys, monkeypatch):
    monkeypatch.setenv("MEDIACUBE_CATALOG", str(five_event_catalog))
    code, out, _ = run("contexts", capsys=capsys)
    assert code == 0
    assert len(out.splitlines()) == 4


def test_catalog_flag_wins_over_env(five_event_catalog, capsys, monkeypatch):
    monkeypatch.setenv("MEDIACUBE_CATALOG", "/nonexistent/elsewhere.jsonl")
    code, out, _ = run("--catalog", str(five_event_catalog), "contexts", capsys=capsys)
    assert code == 0
    assert len(out.splitlines()) == 4


def test_source_register_and_ingest(tmp_path, capsys):
    catalog = tmp_path / "catalog.jsonl"
    descriptor = write_tabular_source(tmp_path / "books.tsv", count=5)
    mapping_file = tmp_path / "mapping.json"
    mapping_file.write_text(json.dumps(mapping_to_dict(descriptor.mapping)),
                            encoding="utf-8")

    code, out, _ = run("--catalog", str(catalog), "source-register",
                       "--source-id", "lib", "--kind", "tabular",
                       "--location", str(tmp_path / "books.tsv"),
                       "--mapping", str(mapping_file), capsys=capsys)
    assert code == 0 and out.strip() == "lib"

    code, out, err = run("--catalog", str(catalog), "ingest", "lib", capsys=capsys)
    assert code == 0
    assert "ingested 5 records" in out
    assert err == ""
    assert len(CatalogStore.load(catalog).snapshot().records) == 5


def test_ingest_reports_problems_on_stderr(tmp_path, capsys):
    catalog = tmp_path / "catalog.jsonl"
    descriptor = write_tabular_source(tmp_path / "books.tsv", count=6, corrupt_line=True)
    mapping_file = tmp_path / "mapping.json"
    mapping_file.write_text(json.dumps(mapping_to_dict(descriptor.mapping)),
                            encoding="utf-8")
    run("--catalog", str(catalog), "source-register",
        "--source-id", "lib", "--kind", "tabular",
        "--location", str(tmp_path / "books.tsv"),
        "--mapping", str(mapping_file), capsys=capsys)

    code, out, err = run("--catalog", str(catalog), "ingest", "lib", capsys=capsys)
    assert code == 0
    assert "ingested 6 records" in out
    assert "1 record problem(s)" in err


def test_user_register_and_usage_log(five_event_catalog, capsys):
    code, _, _ = run("--catalog", str(five_event_catalog), "user-register",
                     "--user-id", "u3", "--name", "Lin",
                     "--social-class", "teacher", capsys=capsys)
    assert code == 0
    code, out, _ = run("--catalog", str(five_event_catalog), "usage-log",
                       "--doc", "fx:d1", "--context", "auditing", "--user", "u3",
                       "--time", "2024-02-01T10:00:00Z", "--type", "occasional",
                       capsys=capsys)
    assert code == 0
    assert out.strip() == "6"
    code, out, _ = run("--catalog", str(five_event_catalog), "contexts", capsys=capsys)
    assert code == 0
    assert any(line.startswith("auditing\tdynamic") for line in out.splitlines())


def test_usage_log_unknown_user(five_event_catalog, capsys):
    code, _, err = run("--catalog", str(five_event_catalog), "usage-log",
                       "--doc", "fx:d1", "--context", "teaching", "--user", "u9",
                       "--type", "occasional", capsys=capsys)
    assert code == 1
    assert "UnknownUser" in err


def test_reports(five_event_catalog, capsys):
    code, out, _ = run("--catalog", str(five_event_catalog),
                       "report", "importance", capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["fx:d1\t3", "fx:d2\t2"]

    code, out, _ = run("--catalog", str(five_event_catalog),
                       "report", "interest", "--user", "u1", capsys=capsys)
    assert code == 0
    assert "context\tteaching\t3" in out.splitlines()

    code, out, _ = run("--catalog", str(five_event_catalog),
                       "report", "evolution", "--granularity", "month", capsys=capsys)
    assert out.splitlines() == ["2024-01\t5"]

    code, out, _ = run("--catalog", str(five_event_catalog),
                       "report", "type-ratio", capsys=capsys)
    assert out.splitlines() == ["repetitive\t2", "occasional\t3"]

    code, out, _ = run("--catalog", str(five_event_catalog),
                       "report", "social-class", capsys=capsys)
    assert out.splitlines() == ["student\tteaching\t3", "unspecified\tlearning\t2"]


def test_serve_on_busy_port_fails_cleanly(five_event_catalog, capsys):
    import socket
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        code, _, err = run("--catalog", str(five_event_catalog), "serve",
                           "--port", str(port), capsys=capsys)
    assert code == 1
    assert "cannot serve" in err


def test_save_and_load(five_event_catalog, tmp_path, capsys):
    copy = tmp_path / "copy.jsonl"
    code, _, _ = run("--catalog", str(five_event_catalog),
                     "save", "--to", str(copy), capsys=capsys)
    assert code == 0
    assert copy.read_bytes() == five_event_catalog.read_bytes()

    fresh = tmp_path / "fresh.jsonl"
    code, out, _ = run("--catalog", str(fresh), "load", "--from", str(copy),
                       capsys=capsys)
    assert code == 0
    assert "5 events" in out
    assert fresh.read_bytes() == copy.read_bytes()


def test_usage_log_malformed_input_is_usage_error(five_event_catalog, capsys):
    base = ["--catalog", str(five_event_catalog), "usage-log", "--context", "teaching",
            "--user", "u1", "--type", "occasional"]
    code, _, err = run(*base, "--doc", "fx:d1", "--time", "yesterday", capsys=capsys)
    assert code == 2 and err.startswith("BadRequest: ") and "2024-01-01T09:00:00Z" in err
    code, _, err = run(*base, "--doc", "not-a-code", capsys=capsys)
    assert code == 2 and err.startswith("MalformedCode: ")
    assert len(CatalogStore.load(five_event_catalog).snapshot().events) == 5


def test_cube_blank_or_repeated_fix_is_usage_error(five_event_catalog, capsys):
    for fixes in (["context="], ["context"], ["context=teaching", "context=learning"]):
        argv = ["--catalog", str(five_event_catalog), "cube"]
        for fix in fixes:
            argv += ["--fix", fix]
        code, out, err = run(*argv, capsys=capsys)
        assert (code, out) == (2, ""), fixes
        assert err.startswith("BadRequest: ")


@pytest.mark.parametrize("mapping", [
    [1],
    "text",
    {"presence": [1], "fields": []},
    {"presence": [{"medium": "text", "field": "kind"}], "fields": ["title"]},
    {"presence": {"medium": "text"}},
    {"presence": [{"medium": "text"}]},
])
def test_source_register_malformed_mapping_is_invalid_mapping(tmp_path, capsys, mapping):
    mapping_file = tmp_path / "mapping.json"
    mapping_file.write_text(json.dumps(mapping), encoding="utf-8")
    code, out, err = run("--catalog", str(tmp_path / "catalog.jsonl"), "source-register",
                         "--source-id", "lib", "--kind", "tabular",
                         "--location", str(tmp_path / "books.tsv"),
                         "--mapping", str(mapping_file), capsys=capsys)
    assert code == 1 and out == ""
    assert err.startswith("InvalidMapping: ") and err.count("\n") == 1


def test_catalog_line_not_utf8_is_corrupt_catalog(five_event_catalog, capsys):
    five_event_catalog.write_bytes(five_event_catalog.read_bytes() + b'{"kind":"\xe9"}\n')
    code, _, err = run("--catalog", str(five_event_catalog), "contexts", capsys=capsys)
    lines = five_event_catalog.read_bytes().count(b"\n")
    assert (code, err.split(":")[0]) == (1, "CorruptCatalog")
    assert f"CorruptCatalog: line {lines}: not UTF-8" in err
