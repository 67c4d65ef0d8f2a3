"""Per-media metadata schemas and the composite generic record.

Each medium carries its own descriptor (text, image, sound). A generic
record pairs a document code with a media class and exactly the descriptors
that class implies. Controlled vocabularies pin the enumerated value lists;
closed vocabularies reject unseen members, open ones accept them with a
warning.

Label matching is exact and case-sensitive; ingestion mappings normalize
case where sources disagree.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from datetime import date
from itertools import repeat
from typing import Callable, Iterable, Mapping

from .codes import DocumentCode, format_document_code, parse_document_code
from .errors import MediaCubeError
from .taxonomy import MediaClass, MediaPresence, classify, decompose

MEDIA = ("text", "image", "sound")


class DuplicateDescriptor(MediaCubeError):
    """Raised when attaching a descriptor kind the record already carries."""


@dataclass(frozen=True)
class ControlledVocabulary:
    """A named set of acceptable labels.

    Open vocabularies accept unseen members (reported as warnings); closed
    vocabularies treat any unseen member as a violation.
    """

    name: str
    members: frozenset[str]
    open: bool = False

    def __contains__(self, label: str) -> bool:
        return label in self.members


def _vocab(name: str, members: Iterable[str], open: bool = False) -> ControlledVocabulary:
    return ControlledVocabulary(name=name, members=frozenset(members), open=open)


#: Built-in vocabularies seeded from the enumerated value lists.
BUILTIN_VOCABULARIES: dict[str, ControlledVocabulary] = {
    v.name: v
    for v in (
        _vocab("colour", ["red", "orange", "yellow", "green", "blue", "indigo",
                          "violet", "grey", "black", "white"]),
        _vocab("shape", ["oval", "circle", "square", "rectangle", "triangle",
                         "cylindrical", "rhombus", "irregular", "line"]),
        _vocab("medium", ["wood", "electronic", "paper", "glass", "stone",
                          "plastic", "composite"]),
        _vocab("sound-type", ["noise", "music", "voice"]),
        _vocab("target", ["public", "private", "not-specified"]),
        _vocab("shape-specificity",
               ["repeated", "perfect shape", "deformed", "interposed"], open=True),
        _vocab("object", ["equipment", "tool"], open=True),
        _vocab("object-specificity",
               ["deformed", "at foreground", "at background"], open=True),
        _vocab("feature", ["nature", "water body", "sporting", "animal",
                           "human being", "activity"], open=True),
        _vocab("feature-subclass",
               ["animal-mammal", "animal-wild", "animal-domestic",
                "water-ocean", "activity-war", "activity-manufacturing"], open=True),
        _vocab("image-type", ["water colour", "digital image", "oil colour",
                              "sketch", "humour", "cartoon"], open=True),
        _vocab("sound-class", ["debate", "dialogue", "music", "publicity"], open=True),
        _vocab("sound-subclass", ["country music", "blast noise", "industrial noise",
                                  "warning sound", "disorder"], open=True),
    )
}


@dataclass(frozen=True, kw_only=True)
class TextDescriptor:
    """Metadata for the text facet of a document."""

    title: str
    author: str | None = None
    summary: str | None = None
    reference_date: date | None = None
    descriptors: tuple[str, ...] = ()
    related_documents: tuple[DocumentCode, ...] = ()


@dataclass(frozen=True, kw_only=True)
class ImageDescriptor:
    """Metadata for the image facet, restricted to visible physical properties."""

    dominant_colour: str
    secondary_colour: str | None = None
    dominant_shape: str
    secondary_shape: str | None = None
    shape_specificity: str | None = None
    dominant_object: str | None = None
    object_specificity: str | None = None
    secondary_object: str | None = None
    dominant_feature: str | None = None
    secondary_feature: str | None = None
    dominant_feature_subclass: str | None = None
    secondary_feature_subclass: str | None = None
    image_format: str
    image_medium: str
    image_type: str


@dataclass(frozen=True, kw_only=True)
class SoundDescriptor:
    """Metadata for the sound facet of a document."""

    originator: str
    target: str = "not-specified"
    descriptors: tuple[str, ...] = ()
    publication_date: date | None = None
    sound_type: str
    sound_class: str | None = None
    sound_subclass: str | None = None


Descriptor = TextDescriptor | ImageDescriptor | SoundDescriptor

_DESCRIPTOR_TYPES: dict[str, type] = {
    "text": TextDescriptor,
    "image": ImageDescriptor,
    "sound": SoundDescriptor,
}
_MEDIUM_OF = {t: medium for medium, t in _DESCRIPTOR_TYPES.items()}


@dataclass(frozen=True, kw_only=True)
class GenericRecord:
    """One derived-database entry: code, class, and attached descriptors."""

    document_code: DocumentCode
    media_class: MediaClass
    text: TextDescriptor | None = None
    image: ImageDescriptor | None = None
    sound: SoundDescriptor | None = None

    @property
    def presence(self) -> MediaPresence:
        return MediaPresence(
            text=self.text is not None,
            image=self.image is not None,
            sound=self.sound is not None,
        )

    def descriptor(self, medium: str) -> Descriptor | None:
        return getattr(self, medium)


# ---------------------------------------------------------------------------
# Generic schema field table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldKind:
    """A kind of field value: its exact type, its item type if a tuple, and its JSON codec."""

    name: str
    type: type
    item_type: type | None
    encode: Callable[[object], object] | None  # None where the JSON value is the value
    decode: Callable[[object], object] | None


def _from(json_type: type, convert: Callable) -> Callable[[object], object]:
    return lambda raw: convert(raw) if isinstance(raw, json_type) else raw


#: The value kinds a generic field can hold. Decoding turns JSON lists into
#: tuples, ISO text into dates and code text into codes, and passes anything
#: else through unchanged for :func:`validate_record` to refuse.
LABEL = FieldKind("label", str, None, None, None)
DATE = FieldKind("date", date, None, date.isoformat, _from(str, date.fromisoformat))
LABELS = FieldKind("labels", tuple, str, list, _from(list, tuple))
CODES = FieldKind("codes", tuple, DocumentCode, lambda value: list(map(str, value)),
                  _from(list, lambda raw: tuple(map(parse_document_code, raw))))


@dataclass(frozen=True)
class FieldSpec:
    """Shape of one generic-schema field, addressed by its dotted path."""

    path: str
    kind: FieldKind = LABEL
    required: bool = False
    vocabulary: str | None = None
    # The two halves of ``path``, split once here rather than on every read.
    medium: str = dataclasses.field(init=False, repr=False, compare=False)
    attribute: str = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        medium, _, attribute = self.path.partition(".")
        object.__setattr__(self, "medium", medium)
        object.__setattr__(self, "attribute", attribute)


SCHEMA_FIELDS: dict[str, FieldSpec] = {
    f.path: f
    for f in (
        FieldSpec("text.author"),
        FieldSpec("text.title", required=True),
        FieldSpec("text.summary"),
        FieldSpec("text.reference_date", kind=DATE),
        FieldSpec("text.descriptors", kind=LABELS),
        FieldSpec("text.related_documents", kind=CODES),
        FieldSpec("image.dominant_colour", required=True, vocabulary="colour"),
        FieldSpec("image.secondary_colour", vocabulary="colour"),
        FieldSpec("image.dominant_shape", required=True, vocabulary="shape"),
        FieldSpec("image.secondary_shape", vocabulary="shape"),
        FieldSpec("image.shape_specificity", vocabulary="shape-specificity"),
        FieldSpec("image.dominant_object", vocabulary="object"),
        FieldSpec("image.object_specificity", vocabulary="object-specificity"),
        FieldSpec("image.secondary_object", vocabulary="object"),
        FieldSpec("image.dominant_feature", vocabulary="feature"),
        FieldSpec("image.secondary_feature", vocabulary="feature"),
        FieldSpec("image.dominant_feature_subclass", vocabulary="feature-subclass"),
        FieldSpec("image.secondary_feature_subclass", vocabulary="feature-subclass"),
        FieldSpec("image.image_format", required=True),
        FieldSpec("image.image_medium", required=True, vocabulary="medium"),
        FieldSpec("image.image_type", required=True, vocabulary="image-type"),
        FieldSpec("sound.originator", required=True),
        FieldSpec("sound.target", vocabulary="target"),
        FieldSpec("sound.descriptors", kind=LABELS),
        FieldSpec("sound.publication_date", kind=DATE),
        FieldSpec("sound.sound_type", required=True, vocabulary="sound-type"),
        FieldSpec("sound.sound_class", vocabulary="sound-class"),
        FieldSpec("sound.sound_subclass", vocabulary="sound-subclass"),
    )
}


#: The schema fields of each medium by attribute name, in ``SCHEMA_FIELDS`` order.
MEDIUM_FIELDS: dict[str, dict[str, FieldSpec]] = {
    m: {f.attribute: f for f in SCHEMA_FIELDS.values() if f.medium == m} for m in MEDIA
}
#: Per medium, the kind of each field whose JSON value is not the value itself.
_CONVERTED = {m: {name: f.kind for name, f in fields.items() if f.kind is not LABEL}
              for m, fields in MEDIUM_FIELDS.items()}


def required_fields(medium: str) -> list[str]:
    """Dotted paths of the fields a descriptor of ``medium`` must populate."""
    return [f.path for f in MEDIUM_FIELDS[medium].values() if f.required]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """One validation finding: the field it concerns and the rule it broke."""

    field: str
    rule: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Problem, ...] = ()
    warnings: tuple[Problem, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the record may enter the catalog (warnings allowed)."""
        return not self.violations

    @property
    def empty(self) -> bool:
        return not self.violations and not self.warnings


_CLEAN = ValidationReport()  # shared by every record without a problem


def validate_record(
    record: GenericRecord,
    vocabularies: Mapping[str, ControlledVocabulary] | Iterable[ControlledVocabulary] | None = None,
    known_codes: Iterable[str] | None = None,
) -> ValidationReport:
    """Check a record against the schema and the given vocabularies.

    All problems are reported, never thrown. Closed-vocabulary misses, values
    of the wrong kind and structural faults are violations; open-vocabulary
    misses and dangling related-document references (when ``known_codes`` is
    supplied) are warnings.
    """
    if vocabularies is None:
        vocabs = BUILTIN_VOCABULARIES
    elif isinstance(vocabularies, Mapping):
        vocabs = dict(vocabularies)
    else:
        vocabs = {v.name: v for v in vocabularies}

    violations: list[Problem] = []
    warnings: list[Problem] = []

    expected = decompose(record.media_class)
    known = None if known_codes is None else set(known_codes)
    for medium in MEDIA:
        descriptor = getattr(record, medium)
        has = descriptor is not None
        if has != getattr(expected, medium):
            detail = "attached but not implied by class" if has else "implied by class but missing"
            violations.append(Problem(
                field=medium,
                rule="descriptor/class-mismatch",
                message=f"{medium} descriptor {detail} {record.media_class.token}",
            ))
        if not has:
            continue
        fields = MEDIUM_FIELDS[medium]
        for name, value in vars(descriptor).items():
            spec = fields[name]
            if not value and value in (None, "", ()):  # ``not value`` first: it is cheap
                if spec.required:
                    path = spec.path
                    violations.append(Problem(path, "required-field", f"{path} is required"))
                continue
            kind = spec.kind  # the type must match exactly: a datetime is not a date
            if type(value) is not kind.type or kind.item_type and not all(
                    map(isinstance, value, repeat(kind.item_type))):
                violations.append(Problem(
                    spec.path, kind.name, f"{spec.path} expects {kind.name}, got {value!r}"))
            elif kind is CODES and known is not None:
                for ref in value:
                    if format_document_code(ref) not in known:
                        warnings.append(Problem(
                            spec.path, "dangling-reference",
                            f"{spec.path} references unknown document {ref}",
                        ))
            elif (vocab := vocabs.get(spec.vocabulary)) is not None and value not in vocab.members:
                problem = Problem(
                    spec.path,
                    "open-vocabulary" if vocab.open else "vocabulary",
                    f"{spec.path} value {value!r} not in {vocab.name} vocabulary",
                )
                (warnings if vocab.open else violations).append(problem)

    image = record.image
    if image is not None:
        for rank, feature, subclass in (
                ("dominant", image.dominant_feature, image.dominant_feature_subclass),
                ("secondary", image.secondary_feature, image.secondary_feature_subclass)):
            if type(subclass) is not str:  # absent, or refused above as not a label
                continue
            if feature is None:
                violations.append(Problem(
                    f"image.{rank}_feature_subclass",
                    "subclass-without-feature",
                    f"{rank} feature sub-class given without a {rank} feature",
                ))
            if "-" not in subclass and "." not in subclass:
                violations.append(Problem(
                    f"image.{rank}_feature_subclass",
                    "subclass-form",
                    f"sub-class labels use the parent-child form, got {subclass!r}",
                ))

    if not violations and not warnings:
        return _CLEAN
    return ValidationReport(violations=tuple(violations), warnings=tuple(warnings))


def attach_descriptor(record: GenericRecord, descriptor: Descriptor) -> GenericRecord:
    """Return a copy of ``record`` carrying ``descriptor``, class recomputed.

    Raises :class:`DuplicateDescriptor` if the record already has a
    descriptor of that kind. Existing descriptors are untouched.
    """
    medium = _MEDIUM_OF[type(descriptor)]
    if record.descriptor(medium) is not None:
        raise DuplicateDescriptor(f"record {record.document_code} already has a {medium} descriptor")
    updated = dataclasses.replace(record, **{medium: descriptor})
    return dataclasses.replace(updated, media_class=classify(updated.presence))


def make_descriptor(medium: str, values: Mapping[str, object]) -> Descriptor:
    """Construct the descriptor of ``medium`` from attribute values."""
    return _DESCRIPTOR_TYPES[medium](**values)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def descriptor_to_dict(descriptor: Descriptor) -> dict:
    out = {name: value for name, value in vars(descriptor).items() if value not in (None, ())}
    for name, kind in _CONVERTED[_MEDIUM_OF[type(descriptor)]].items():
        if name in out:
            out[name] = kind.encode(out[name])
    return out


def descriptor_from_dict(medium: str, data: Mapping[str, object]) -> Descriptor:
    """Decode each field by its kind; :func:`validate_record` checks the values."""
    if not data.keys() <= MEDIUM_FIELDS[medium].keys():
        unknown = ", ".join(sorted(data.keys() - MEDIUM_FIELDS[medium].keys()))
        raise ValueError(f"unknown {medium} descriptor field: {unknown}")
    values = dict(data)
    for name, kind in _CONVERTED[medium].items():
        if name in values:
            values[name] = kind.decode(values[name])
    return make_descriptor(medium, values)


def record_to_dict(record: GenericRecord) -> dict:
    return {"document_code": str(record.document_code), "media_class": record.media_class.token,
            **{m: descriptor_to_dict(d) for m in MEDIA if (d := getattr(record, m)) is not None}}


def record_from_dict(data: Mapping[str, object]) -> GenericRecord:
    return GenericRecord(
        document_code=parse_document_code(data["document_code"]),
        media_class=MediaClass.from_token(data["media_class"]),
        **{m: descriptor_from_dict(m, data[m]) for m in MEDIA if m in data})
