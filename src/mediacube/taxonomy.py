"""Seven-class multimedia taxonomy.

A document is classified by which of the three media (text, image, sound)
it carries. The seven classes are exactly the nonempty combinations; the
all-absent combination is not a document and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import MediaCubeError


class AllAbsent(MediaCubeError):
    """Raised when a presence triple carries no medium at all."""


@dataclass(frozen=True)
class MediaPresence:
    """Which media are present in a document."""

    text: bool = False
    image: bool = False
    sound: bool = False

    @property
    def any(self) -> bool:
        return self.text or self.image or self.sound


class MediaClass(Enum):
    """One of the seven media classes.

    The enum value is the serialized token (lowercase, hyphenated); the
    ``label`` property gives the canonical hyphen-free name.
    """

    TEXT = "text"
    IMAGE = "image"
    SOUND = "sound"
    TEXT_IMAGE = "text-image"
    TEXT_SOUND = "text-sound"
    IMAGE_SOUND = "image-sound"
    TEXT_IMAGE_SOUND = "text-image-sound"

    @property
    def token(self) -> str:
        return self.value

    @property
    def label(self) -> str:
        return "".join(part.capitalize() for part in self.value.split("-"))

    @classmethod
    def from_token(cls, token: str) -> "MediaClass":
        try:
            return _CLASS_BY_TOKEN[token]
        except KeyError:
            raise ValueError(f"unknown media class token: {token!r}") from None

    def __str__(self) -> str:
        return self.value


_CLASS_BY_TOKEN = {c.value: c for c in MediaClass}
_CLASS_BY_PRESENCE = {
    MediaPresence(text=True): MediaClass.TEXT,
    MediaPresence(image=True): MediaClass.IMAGE,
    MediaPresence(sound=True): MediaClass.SOUND,
    MediaPresence(text=True, image=True): MediaClass.TEXT_IMAGE,
    MediaPresence(text=True, sound=True): MediaClass.TEXT_SOUND,
    MediaPresence(image=True, sound=True): MediaClass.IMAGE_SOUND,
    MediaPresence(text=True, image=True, sound=True): MediaClass.TEXT_IMAGE_SOUND,
}

_PRESENCE_BY_CLASS = {c: p for p, c in _CLASS_BY_PRESENCE.items()}


def classify(presence: MediaPresence) -> MediaClass:
    """Return the unique class whose presence triple equals ``presence``.

    Raises :class:`AllAbsent` for the empty triple, which describes no
    document.
    """
    if not presence.any:
        raise AllAbsent("a document must carry at least one of text, image, sound")
    return _CLASS_BY_PRESENCE[presence]


def decompose(media_class: MediaClass) -> MediaPresence:
    """Return the presence triple of ``media_class``."""
    return _PRESENCE_BY_CLASS[media_class]


def subsumes(a: MediaClass, b: MediaClass) -> bool:
    """True iff every medium present in ``b`` is also present in ``a``."""
    pa, pb = decompose(a), decompose(b)
    return (pa.text or not pb.text) and (pa.image or not pb.image) and (pa.sound or not pb.sound)
