from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mediacube
from catalog_fixtures import write_tabular_source
from catalog_fixtures import count_record_builds
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


def test_ingest_counts_a_row_that_is_not_utf8_as_one_problem(tmp_path, capsys):
    catalog, table = tmp_path / "catalog.jsonl", tmp_path / "books.tsv"
    descriptor = write_tabular_source(table, count=3)
    table.write_bytes(table.read_bytes().replace(b"Title 2", b"Title \xff"))
    mapping_file = tmp_path / "mapping.json"
    mapping_file.write_text(json.dumps(mapping_to_dict(descriptor.mapping)), encoding="utf-8")
    run("--catalog", str(catalog), "source-register", "--source-id", "lib", "--kind", "tabular",
        "--location", str(table), "--mapping", str(mapping_file), capsys=capsys)

    code, out, err = run("--catalog", str(catalog), "ingest", "lib", capsys=capsys)
    assert code == 0
    assert "ingested 2 records" in out
    assert err.startswith("line 3\tMalformedSourceRecord\tnot UTF-8: ")
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


@pytest.mark.parametrize("name", ["importance", "interest", "evolution", "type-ratio",
                                  "social-class"])
def test_report_refuses_an_unknown_granularity_as_cube_does(five_event_catalog, capsys, name):
    catalog = ["--catalog", str(five_event_catalog)]
    cube = run(*catalog, "cube", "--granularity", "week", capsys=capsys)
    report = run(*catalog, "report", name, "--user", "u1", "--granularity", "week",
                 capsys=capsys)
    assert report == cube
    assert cube[0] == 1 and cube[2] == (
        "InvalidGranularity: granularity must be one of ('day', 'month', 'year'), got 'week'\n")


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


TEXT_MAPPING = {"presence": [{"medium": "text", "field": "kind"}],
                "fields": [{"source": "title", "target": "text.title"}]}


@pytest.mark.parametrize("mapping", [
    [1],
    "text",
    {"presence": [1], "fields": []},
    {"presence": [{"medium": "text", "field": "kind"}], "fields": ["title"]},
    {"presence": {"medium": "text"}},
    {"presence": [{"medium": "text"}]},
    {**TEXT_MAPPING, "defaults": "abc"},
    {**TEXT_MAPPING, "defaults": None},
    {**TEXT_MAPPING, "defaults": {"text.author": 5}},
    {**TEXT_MAPPING, "fields": [{"source": "title", "target": ["text.title"]}]},
    {**TEXT_MAPPING, "uri_field": ["x"]},
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


@pytest.mark.parametrize("mapping, key", [
    ({**TEXT_MAPPING, "defualts": {}}, "defualts"),
    ({**TEXT_MAPPING, "presence": [{"medium": "text", "field": "kind", "equal": "book"}]},
     "equal"),
    ({**TEXT_MAPPING, "fields": [{"source": "title", "target": "text.title",
                                  "transfrom": "lowercase"}]}, "transfrom"),
], ids=["mapping", "presence-rule", "field-rule"])
def test_source_register_unknown_mapping_key_is_invalid_mapping(tmp_path, capsys, mapping, key):
    mapping_file = tmp_path / "mapping.json"
    mapping_file.write_text(json.dumps(mapping), encoding="utf-8")
    code, out, err = run("--catalog", str(tmp_path / "catalog.jsonl"), "source-register",
                         "--source-id", "lib", "--kind", "tabular",
                         "--location", str(tmp_path / "books.tsv"),
                         "--mapping", str(mapping_file), capsys=capsys)
    assert (code, out) == (1, "")
    assert err.startswith("InvalidMapping: ") and f"unknown key '{key}'" in err


def test_catalog_line_not_utf8_is_corrupt_catalog(five_event_catalog, capsys):
    five_event_catalog.write_bytes(five_event_catalog.read_bytes() + b'{"kind":"\xe9"}\n')
    code, _, err = run("--catalog", str(five_event_catalog), "contexts", capsys=capsys)
    lines = five_event_catalog.read_bytes().count(b"\n")
    assert (code, err.split(":")[0]) == (1, "CorruptCatalog")
    assert f"CorruptCatalog: line {lines}: not UTF-8" in err


def test_usage_log_over_the_file_size_limit_leaves_the_catalog_whole(five_event_catalog):
    pytest.importorskip("resource")
    before = five_event_catalog.read_bytes()
    # The limit admits the old file but not the new one, whose novel context
    # line moves every event line down: a truncating write would cut line 14.
    script = textwrap.dedent(f"""
        import resource, sys
        from mediacube.cli import main
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, ({len(before)}, hard))
        sys.exit(main(sys.argv[1:]))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(mediacube.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", script, "--catalog", str(five_event_catalog), "usage-log",
         "--doc", "fx:d1", "--context", "seminar", "--user", "u1", "--type", "occasional"],
        capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 1, child.stderr
    assert child.stderr.startswith("StorageIO: cannot write")
    assert five_event_catalog.read_bytes() == before
    assert list(five_event_catalog.parent.iterdir()) == [five_event_catalog]


@pytest.mark.parametrize("argv, decoded", [
    (["cube"], []),
    (["cube", "--fix", "doc=fx:d1"], []),
    (["report", "importance"], []),
    (["report", "social-class"], []),
    (["contexts"], []),
    (["usage-log", "--doc", "fx:d2", "--context", "seminar", "--user", "u2",
      "--type", "occasional"], []),
    (["record-get", "fx:d1"], ["fx:d1"]),
])
def test_commands_decode_only_the_records_they_print(five_event_catalog, capsys, monkeypatch,
                                                     argv, decoded):
    built = count_record_builds(monkeypatch)
    code, _, err = run("--catalog", str(five_event_catalog), *argv, capsys=capsys)
    assert (code, err) == (0, "")
    assert built == decoded


def test_load_command_counts_the_records_without_decoding_them(five_event_catalog, tmp_path,
                                                               capsys, monkeypatch):
    built = count_record_builds(monkeypatch)
    code, out, _ = run("--catalog", str(tmp_path / "copy.jsonl"), "load",
                       "--from", str(five_event_catalog), capsys=capsys)
    assert code == 0
    assert out == "loaded 2 records, 5 events, 2 users, 4 contexts\n"
    assert built == []
    assert (tmp_path / "copy.jsonl").read_bytes() == five_event_catalog.read_bytes()
