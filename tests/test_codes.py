from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from mediacube.codes import (
    DocumentCode,
    MalformedCode,
    format_document_code,
    parse_document_code,
)


def test_parse_compound():
    code = parse_document_code("s01:doc-042")
    assert code == DocumentCode.compound("s01", "doc-042")
    assert not code.is_uri


def test_parse_uri():
    code = parse_document_code("https://example.org/d/7")
    assert code.is_uri
    assert code.uri == "https://example.org/d/7"
    assert str(code) == "https://example.org/d/7"


@pytest.mark.parametrize("text", [
    "",
    "NoSeparatorNoScheme",
    "UPPER:doc",
    "s01:",
    ":doc",
    "way-too-long-a-source-identifier-here:doc",
    "s01:a:b",          # unescaped colon in the local part
    "s01:trailing\\",   # dangling escape
])
def test_parse_rejects_malformed(text):
    with pytest.raises(MalformedCode):
        parse_document_code(text)


@pytest.mark.parametrize("value", [123, None, b"s01:doc", ["s01:doc"]])
def test_parse_rejects_non_string(value):
    with pytest.raises(MalformedCode, match="must be a string"):
        parse_document_code(value)


def test_unknown_scheme_parses_as_compound():
    # Only http, https, and file mark the URI form; anything else falls
    # back to the compound grammar.
    code = parse_document_code("ftp://example.org/x")
    assert (code.source_id, code.local_id) == ("ftp", "//example.org/x")


def test_escaped_colon_round_trip():
    code = DocumentCode.compound("s01", "doc:042")
    text = format_document_code(code)
    assert text == "s01:doc\\:042"
    assert parse_document_code(text) == code


def test_compound_uri_collision_rejected():
    with pytest.raises(MalformedCode):
        DocumentCode.compound("https", "//example.org")


def test_code_is_one_form_only():
    with pytest.raises(MalformedCode):
        DocumentCode(source_id="s01", local_id="x", uri="https://example.org")
    with pytest.raises(MalformedCode):
        DocumentCode(source_id="s01")


source_ids = st.from_regex(r"[a-z0-9_-]{1,32}", fullmatch=True)
local_ids = st.text(min_size=1, max_size=40).filter(
    lambda s: not s.startswith("//"))


@given(source_id=source_ids, local_id=local_ids)
def test_parse_format_identity_on_codes(source_id, local_id):
    code = DocumentCode.compound(source_id, local_id)
    assert parse_document_code(format_document_code(code)) == code


@given(source_id=source_ids, local_id=local_ids)
def test_format_parse_identity_on_canonical_text(source_id, local_id):
    text = format_document_code(DocumentCode.compound(source_id, local_id))
    assert format_document_code(parse_document_code(text)) == text


@given(path=st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                    max_size=20))
def test_uri_round_trip(path):
    text = "https://example.org/" + path
    code = parse_document_code(text)
    assert code.is_uri
    assert format_document_code(code) == text
