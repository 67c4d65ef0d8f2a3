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
        _check_parts(self.source_id, self.local_id, self.uri)

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


def _check_parts(source_id: str | None, local_id: str | None, uri: str | None) -> None:
    """Raise :class:`MalformedCode` unless the parts make one code of one form."""
    if uri is not None:
        if source_id is not None or local_id is not None:
            raise MalformedCode("a code is either compound or a URI, not both")
        if not uri.startswith(URI_SCHEMES):
            raise MalformedCode(f"URI must use one of {', '.join(URI_SCHEMES)}: {uri!r}")
        return
    if source_id is None or local_id is None:
        raise MalformedCode("compound code needs both source_id and local_id")
    if not SOURCE_ID_PATTERN.match(source_id):
        raise MalformedCode(f"bad source_id {source_id!r} (expected [a-z0-9_-]{{1,32}})")
    if not local_id:
        raise MalformedCode("local_id must be non-empty")
    # A compound such as ("https", "//x") would serialize identically to
    # a URI and could not round-trip; reject it outright.
    if source_id in ("http", "https", "file") and local_id.startswith("//"):
        raise MalformedCode("compound code would be indistinguishable from a URI")


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
    source_id, local_id, uri = _split(text)
    return DocumentCode(source_id=source_id, local_id=local_id, uri=uri)


def check_document_code(text: object) -> None:
    """Raise :class:`MalformedCode` where :func:`parse_document_code` would, building nothing."""
    _check_parts(*_split(text))


def _split(text: object) -> tuple[str | None, str | None, str | None]:
    """The source_id, local_id and URI that ``text`` spells, unchecked."""
    if not isinstance(text, str):
        raise MalformedCode(f"document code must be a string, got {text!r}")
    if not text:
        raise MalformedCode("empty document code")
    if text.startswith(URI_SCHEMES):
        return None, None, text
    head, sep, tail = text.partition(":")
    if not sep:
        raise MalformedCode(f"not a compound code or URI: {text!r}")
    return head, _LOCAL_SPECIAL.sub(_unescape, tail), None
