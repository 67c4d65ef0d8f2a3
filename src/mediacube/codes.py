"""Document codes linking generic records back to their federated origin.

A code is either a source-scoped compound identifier, serialized as
``<source_id>:<local_id>``, or an absolute URI. In the compound form any
``:`` or ``\\`` inside the local identifier is escaped (``\\:`` and
``\\\\``) so the serialized text stays unambiguous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import MediaCubeError

SOURCE_ID_PATTERN = re.compile(r"^[a-z0-9_-]{1,32}$")
URI_SCHEMES = ("http://", "https://", "file://")


class MalformedCode(MediaCubeError):
    """Raised for text that is neither a compound code nor a known URI."""


@dataclass(frozen=True)
class DocumentCode:
    """Reference from the generic catalog to a federated source record.

    Exactly one of the two forms is populated: (``source_id``, ``local_id``)
    for the compound form, or ``uri`` for the internet-link form.
    """

    source_id: str | None = None
    local_id: str | None = None
    uri: str | None = None

    def __post_init__(self):
        if self.uri is not None:
            if self.source_id is not None or self.local_id is not None:
                raise MalformedCode("a code is either compound or a URI, not both")
            if not self.uri.startswith(URI_SCHEMES):
                raise MalformedCode(f"URI must use one of {', '.join(URI_SCHEMES)}: {self.uri!r}")
            return
        if self.source_id is None or self.local_id is None:
            raise MalformedCode("compound code needs both source_id and local_id")
        if not SOURCE_ID_PATTERN.match(self.source_id):
            raise MalformedCode(f"bad source_id {self.source_id!r} (expected [a-z0-9_-]{{1,32}})")
        if not self.local_id:
            raise MalformedCode("local_id must be non-empty")
        # A compound such as ("https", "//x") would serialize identically to
        # a URI and could not round-trip; reject it outright.
        if self.source_id in ("http", "https", "file") and self.local_id.startswith("//"):
            raise MalformedCode("compound code would be indistinguishable from a URI")

    @property
    def is_uri(self) -> bool:
        return self.uri is not None

    @classmethod
    def compound(cls, source_id: str, local_id: str) -> "DocumentCode":
        return cls(source_id=source_id, local_id=local_id)

    @classmethod
    def for_uri(cls, uri: str) -> "DocumentCode":
        return cls(uri=uri)

    def __str__(self) -> str:
        return format_document_code(self)


def _escape_local(local_id: str) -> str:
    return local_id.replace("\\", "\\\\").replace(":", "\\:")


#: A backslash with the character after it (none at the end), or a bare ``:``.
_LOCAL_SPECIAL = re.compile(r"\\(.?)|:", re.DOTALL)


def _unescape(match: re.Match) -> str:
    """Replace one match of ``_LOCAL_SPECIAL`` in a local_id by what it stands for."""
    if match[0] == ":":
        raise MalformedCode(f"unescaped ':' in local_id: {match.string!r}")
    if match[1] not in (":", "\\"):
        raise MalformedCode(f"bad escape in local_id: {match.string!r}")
    return match[1]


def format_document_code(code: DocumentCode) -> str:
    """Serialize ``code`` to its canonical text form."""
    if code.uri is not None:
        return code.uri
    return f"{code.source_id}:{_escape_local(code.local_id)}"


def parse_document_code(text: str) -> DocumentCode:
    """Parse canonical text into a :class:`DocumentCode`.

    Raises :class:`MalformedCode` for empty or non-string input, a bad
    source identifier, or text that has neither a separator nor a URI scheme.
    """
    if not isinstance(text, str):
        raise MalformedCode(f"document code must be a string, got {text!r}")
    if not text:
        raise MalformedCode("empty document code")
    if text.startswith(URI_SCHEMES):
        return DocumentCode(uri=text)
    head, sep, tail = text.partition(":")
    if not sep:
        raise MalformedCode(f"not a compound code or URI: {text!r}")
    return DocumentCode(source_id=head, local_id=_LOCAL_SPECIAL.sub(_unescape, tail))
