"""The error table: every case the front ends can raise has a status and exit code."""

from __future__ import annotations

import pytest

import mediacube.cli  # noqa: F401  (loads every module, the service's error cases too)
from mediacube.errors import (ERROR_TABLE, UNLISTED, MediaCubeError, NotFound, exit_code,
                             http_status)
from mediacube.service import RequestTimeout
from mediacube.store import UnknownUser

# Raised only while mapping or storing one harvested record: ingest_source
# reports them per record and a catalog load wraps them in CorruptCatalog,
# so neither the CLI nor the HTTP service ever sees them.
RECORD_PROBLEMS = {"AllAbsent", "DuplicateDescriptor", "FieldTransformError",
                   "MappedRecordInvalid", "PresenceUndecidable", "RecordInvalid",
                   "RequiredFieldMissing"}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_front_end_case_has_a_row():
    cases = {cls.__name__ for cls in _subclasses(MediaCubeError)}
    assert RECORD_PROBLEMS <= cases
    assert cases - RECORD_PROBLEMS == set(ERROR_TABLE)


@pytest.mark.parametrize("case, status, code", [
    ("BadRequest", 400, 2),
    ("MalformedCode", 400, 2),
    ("MalformedEvent", 400, 1),
    ("InvalidTimeRange", 400, 1),
    ("InvalidGranularity", 400, 1),
    ("RecordNotFound", 404, 1),
    ("UnknownSource", 404, 1),
    ("NotFoundAtSource", 404, 1),
    ("UnknownDocument", 404, 1),
    ("UnknownUser", 404, 1),
    ("UnknownContext", 404, 1),
    ("PayloadTooLarge", 413, 1),
    ("SourceUnreachable", 502, 1),
    ("StorageIO", 503, 1),
])
def test_table_keeps_the_tested_statuses_and_exit_codes(case, status, code):
    assert ERROR_TABLE[case] == (status, code)


def test_write_answers_not_found_as_conflict():
    error = UnknownUser("user 'u9' is not registered")
    assert http_status(error) == 404
    assert http_status(error, write=True) == 409
    assert exit_code(error) == 1


def test_unlisted_failures_are_internal_errors():
    assert UNLISTED == (500, 1)
    assert http_status(ZeroDivisionError()) == 500
    assert http_status(ZeroDivisionError(), write=True) == 500
    assert exit_code(KeyError("x")) == 1


def test_request_timeout_row():
    assert (http_status(RequestTimeout("late")), exit_code(RequestTimeout("late"))) == (408, 1)


def test_not_found_row():
    assert ERROR_TABLE["NotFound"] == (404, 1)
    assert (http_status(NotFound("no endpoint GET /x")), exit_code(NotFound("x"))) == (404, 1)
