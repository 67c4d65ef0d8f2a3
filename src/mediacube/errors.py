"""Shared exception base and the one error table of the front ends.

Every domain error raised by the package derives from :class:`MediaCubeError`
so callers (notably the CLI and the query service) can map any failure to the
error case name without enumerating modules. :data:`ERROR_TABLE` gives each
case its HTTP status and CLI exit code; it is keyed by case name, so this
module imports nothing from the package.
"""

from __future__ import annotations


class MediaCubeError(Exception):
    """Base class for all domain errors."""

    @property
    def case(self) -> str:
        """Stable name of the error case, e.g. ``UnknownSource``."""
        return type(self).__name__


class BadRequest(MediaCubeError):
    """Malformed request or filter input from a CLI argument or an HTTP request."""


class NotFound(MediaCubeError):
    """A request for an endpoint or a report that does not exist."""


#: Error case -> (HTTP status, CLI exit code). Exit code 2 marks a usage error.
ERROR_TABLE: dict[str, tuple[int, int]] = {
    "BadRequest": (400, 2),
    "MalformedCode": (400, 2),
    "MalformedEvent": (400, 1),
    "MalformedProfile": (400, 1),
    "InvalidMapping": (400, 1),
    "InvalidTimeRange": (400, 1),
    "InvalidGranularity": (400, 1),
    "NotFound": (404, 1),
    "RecordNotFound": (404, 1),
    "UnknownSource": (404, 1),
    "NotFoundAtSource": (404, 1),
    "UnknownDocument": (404, 1),
    "UnknownUser": (404, 1),
    "UnknownContext": (404, 1),
    "DuplicateSource": (409, 1),
    "SourceDisabled": (409, 1),
    "RequestTimeout": (408, 1),
    "PayloadTooLarge": (413, 1),
    "CorruptCatalog": (500, 1),
    "SourceUnreachable": (502, 1),
    "StorageIO": (503, 1),
}

#: Status and exit code of anything not in the table, such as a program fault.
UNLISTED = (500, 1)


def http_status(exc: BaseException, write: bool = False) -> int:
    """HTTP status answering ``exc``; ``write`` marks the catalog's write endpoint."""
    status = ERROR_TABLE.get(getattr(exc, "case", ""), UNLISTED)[0]
    # A write naming a missing document or user conflicts with the catalog
    # (409); it does not ask for a resource that is missing (404).
    return 409 if write and status == 404 else status


def exit_code(exc: BaseException) -> int:
    """CLI exit code for ``exc``."""
    return ERROR_TABLE.get(getattr(exc, "case", ""), UNLISTED)[1]
