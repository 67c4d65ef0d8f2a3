"""Per-media metadata schemas and the composite generic record.

Each medium carries its own descriptor (text, image, sound). A generic
record pairs a document code with a media class and exactly the descriptors
that class implies. Controlled vocabularies pin the enumerated value lists;
closed vocabularies reject unseen members, open ones accept them with a
warning.

The descriptor dataclasses are the generic schema: a field's annotation gives
its kind, a field without a default is required, and ``_in`` names its
vocabulary. ``SCHEMA_FIELDS`` and the other schema tables are read from them.

Label matching is exact and case-sensitive; ingestion mappings normalize
case where sources disagree.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from datetime import date
from itertools import repeat
from types import UnionType
from typing import Callable, Iterable, Mapping, get_type_hints

from .codes import DocumentCode, MalformedCode, check_document_code, parse_document_code
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


def _in(vocabulary: str, default=dataclasses.MISSING):
    """A descriptor field whose labels come from ``vocabulary``; no default means required."""
    return dataclasses.field(default=default, metadata={"vocabulary": vocabulary})


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

    dominant_colour: str = _in("colour")
    secondary_colour: str | None = _in("colour", None)
    dominant_shape: str = _in("shape")
    secondary_shape: str | None = _in("shape", None)
    shape_specificity: str | None = _in("shape-specificity", None)
    dominant_object: str | None = _in("object", None)
    object_specificity: str | None = _in("object-specificity", None)
    secondary_object: str | None = _in("object", None)
    dominant_feature: str | None = _in("feature", None)
    secondary_feature: str | None = _in("feature", None)
    dominant_feature_subclass: str | None = _in("feature-subclass", None)
    secondary_feature_subclass: str | None = _in("feature-subclass", None)
    image_format: str
    image_medium: str = _in("medium")
    image_type: str = _in("image-type")


@dataclass(frozen=True, kw_only=True)
class SoundDescriptor:
    """Metadata for the sound facet of a document."""

    originator: str
    target: str = _in("target", "not-specified")
    descriptors: tuple[str, ...] = ()
    publication_date: date | None = None
    sound_type: str = _in("sound-type")
    sound_class: str | None = _in("sound-class", None)
    sound_subclass: str | None = _in("sound-subclass", None)


Descriptor = TextDescriptor | ImageDescriptor | SoundDescriptor

_DESCRIPTOR_TYPES = dict(zip(MEDIA, (TextDescriptor, ImageDescriptor, SoundDescriptor)))
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
    json_type: type  # str, or a list of str
    encode: Callable[[object], object] | None  # None where the JSON value is the value
    decode: Callable[[object], object] | None


#: The value kinds a generic field can hold.
LABEL = FieldKind("label", str, None, str, None, None)
DATE = FieldKind("date", date, None, str, date.isoformat, date.fromisoformat)
LABELS = FieldKind("labels", tuple, str, list, list, tuple)
CODES = FieldKind("codes", tuple, DocumentCode, list, lambda value: list(map(str, value)),
                  lambda raw: tuple(map(parse_document_code, raw)))


#: The kind of each field annotation that is not ``X | None``.
_KIND_OF = {kind.type if kind.item_type is None else tuple[kind.item_type, ...]: kind
            for kind in (LABEL, DATE, LABELS, CODES)}


@dataclass(frozen=True)
class FieldSpec:
    """Shape of one generic-schema field; ``path`` is ``medium.attribute``."""

    path: str
    medium: str
    attribute: str
    kind: FieldKind
    required: bool
    vocabulary: str | None


def _schema_of(medium: str) -> dict[str, FieldSpec]:
    """The schema fields of ``medium`` by attribute name, read from its dataclass."""
    cls = _DESCRIPTOR_TYPES[medium]
    hints = get_type_hints(cls)
    specs = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if isinstance(hint, UnionType):  # ``X | None`` has the kind of ``X``
            hint = hint.__args__[0]
        specs[f.name] = FieldSpec(
            path=f"{medium}.{f.name}", medium=medium, attribute=f.name, kind=_KIND_OF[hint],
            required=f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
            vocabulary=f.metadata.get("vocabulary"))
    return specs


#: The schema fields of each medium by attribute name, in dataclass field order.
MEDIUM_FIELDS: dict[str, dict[str, FieldSpec]] = {m: _schema_of(m) for m in MEDIA}
SCHEMA_FIELDS: dict[str, FieldSpec] = {
    f.path: f for fields in MEDIUM_FIELDS.values() for f in fields.values()}
#: The one table of required fields: per medium, each field a descriptor must populate.
REQUIRED_FIELDS: dict[str, tuple[FieldSpec, ...]] = {
    m: tuple(f for f in fields.values() if f.required) for m, fields in MEDIUM_FIELDS.items()}
#: Per medium, the kind of each field whose JSON value is not the value itself.
_CONVERTED = {m: {name: f.kind for name, f in fields.items() if f.kind is not LABEL}
              for m, fields in MEDIUM_FIELDS.items()}


def required_fields(medium: str) -> list[str]:
    """Dotted paths of the fields a descriptor of ``medium`` must populate."""
    return [f.path for f in REQUIRED_FIELDS[medium]]


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

    def refuse(self, code: object, error: type[Exception]) -> None:
        """Raise ``error`` naming each violation of the record ``code``, if it has any, as
        ``code: field: message; …``."""
        if self.violations:
            raise error(f"{code}: " + "; ".join(f"{p.field}: {p.message}" for p in self.violations))


_CLEAN = ValidationReport()  # shared by every record without a problem
Vocabularies = Mapping[str, ControlledVocabulary] | Iterable[ControlledVocabulary] | None


def _is_kind(kind: FieldKind, value: object) -> bool:
    """Whether ``value`` is exactly of ``kind``: a datetime is not a date."""
    return type(value) is kind.type and (
        kind.item_type is None or all(map(isinstance, value, repeat(kind.item_type))))


def _is_json_kind(kind: FieldKind, value: object) -> bool:
    """Whether ``value`` is a ``json_type`` that decodes to a value of ``kind``;
    each code of a code list is checked, and no ``DocumentCode`` is built."""
    try:
        if kind is CODES:
            return type(value) is list and all(check_document_code(c) is None for c in value)
        return type(value) is kind.json_type and _is_kind(
            kind, value if kind.decode is None else kind.decode(value))
    except (ValueError, MalformedCode):
        return False


def validate_record(record: GenericRecord, vocabularies: Vocabularies = None,
                    known_codes: Iterable[str] | None = None) -> ValidationReport:
    """Check a record against the schema and the given vocabularies.

    All problems are reported, never thrown. Closed-vocabulary misses, values
    of the wrong kind and structural faults are violations; open-vocabulary
    misses and dangling related-document references (when ``known_codes`` is
    supplied) are warnings.
    """
    descriptors = {m: vars(d) for m in MEDIA if (d := getattr(record, m)) is not None}
    return _check(record.media_class, descriptors, _is_kind, vocabularies, known_codes, [])


def check_record_dict(data: Mapping[str, object]) -> ValidationReport:
    """Check a record in its JSON form, as :func:`record_to_dict` writes it.

    The rules are those of :func:`validate_record` with the built-in vocabularies,
    each value in the JSON form of its kind; on top, the code must parse, the class
    token be known and each descriptor be an object. Other top-level keys are not read.
    """
    violations: list[Problem] = []
    try:
        check_document_code(data.get("document_code"))
    except MalformedCode as exc:
        violations.append(Problem("document_code", "code", str(exc)))
    try:
        media_class = MediaClass.from_token(data.get("media_class"))
    except (ValueError, TypeError) as exc:  # TypeError: a token that is not hashable
        violations.append(Problem("media_class", "media-class", str(exc)))
        media_class = None
    return _check(media_class, data, _is_json_kind, None, None, violations)


def _check(media_class: MediaClass | None, descriptors: Mapping[str, object],
           is_kind: Callable[[FieldKind, object], bool], vocabularies: Vocabularies,
           known_codes: Iterable[str] | None, violations: list[Problem]) -> ValidationReport:
    """The schema rules over the field values, as objects or JSON, of each medium in
    ``descriptors``; other keys are not read."""
    if vocabularies is None:
        vocabs = BUILTIN_VOCABULARIES
    elif isinstance(vocabularies, Mapping):
        vocabs = dict(vocabularies)
    else:
        vocabs = {v.name: v for v in vocabularies}
    warnings: list[Problem] = []

    expected = None if media_class is None else decompose(media_class)
    known = None if known_codes is None else set(known_codes)
    for medium in MEDIA:
        has = medium in descriptors
        if expected is not None and has != getattr(expected, medium):
            detail = "attached but not implied by class" if has else "implied by class but missing"
            violations.append(Problem(medium, "descriptor/class-mismatch",
                                      f"{medium} descriptor {detail} {media_class.token}"))
        if not has:
            continue
        values = descriptors[medium]
        if type(values) is not dict:
            violations.append(Problem(medium, "descriptor", f"{medium} descriptor must be an "
                                      f"object, got a {type(values).__name__!r} object"))
            continue
        fields = MEDIUM_FIELDS[medium]
        for spec in REQUIRED_FIELDS[medium]:
            value = values.get(spec.attribute)
            if not value and value in (None, "", ()):  # ``not``: cheap
                violations.append(Problem(spec.path, "required-field", f"{spec.path} is required"))
        for name, value in values.items():
            if value is None:
                continue
            if (spec := fields.get(name)) is None:
                violations.append(Problem(f"{medium}.{name}", "unknown-field",
                                          f"unknown {medium} descriptor field: {name}"))
            elif (kind := spec.kind) is LABEL and type(value) is str:
                if value and spec.vocabulary and (vocab := vocabs.get(spec.vocabulary)) and (
                        value not in vocab.members):
                    (warnings if vocab.open else violations).append(Problem(
                        spec.path, "open-vocabulary" if vocab.open else "vocabulary",
                        f"{spec.path} value {value!r} not in {vocab.name} vocabulary"))
            elif not is_kind(kind, value):
                violations.append(Problem(
                    spec.path, kind.name, f"{spec.path} expects {kind.name}, got {value!r}"))
            elif kind is CODES and known is not None:
                warnings.extend(Problem(spec.path, "dangling-reference",
                                        f"{spec.path} references unknown document {ref}")
                                for ref in map(str, value) if ref not in known)

    image = descriptors.get("image")
    for rank in ("dominant", "secondary") if type(image) is dict else ():
        if type(label := image.get(f"{rank}_feature_subclass")) is not str:  # absent, or refused
            continue
        path = f"image.{rank}_feature_subclass"
        if image.get(f"{rank}_feature") is None:
            violations.append(Problem(path, "subclass-without-feature",
                                      f"{rank} feature sub-class given without a {rank} feature"))
        if "-" not in label and "." not in label:
            violations.append(Problem(path, "subclass-form", f"sub-class labels use the "
                                      f"parent-child form, got {label!r}"))

    if not violations and not warnings:
        return _CLEAN
    return ValidationReport(violations=tuple(violations), warnings=tuple(warnings))


def _json_check(spec: FieldSpec) -> Callable[[object], bool]:
    """Whether a JSON value of ``spec`` passes :func:`_check` and is written back as it is."""
    if spec.kind is DATE:
        return lambda value: date.fromisoformat(value).isoformat() == value
    if spec.kind is not LABEL:  # a list of labels or codes, which is never written empty
        item = ((lambda code: check_document_code(code) is None) if spec.kind is CODES
                else lambda label: type(label) is str)
        return lambda value: type(value) is list and value != [] and all(map(item, value))
    subclass = spec.attribute.endswith("_feature_subclass")  # in the parent-child form
    label = lambda value: type(value) is str and (value != "" or not spec.required) and (
        not subclass or "-" in value or "." in value)
    vocabulary = BUILTIN_VOCABULARIES.get(spec.vocabulary)
    return (label if vocabulary is None or vocabulary.open  # else a set of the labels it allows
            else frozenset(filter(label, vocabulary.members | {""})).__contains__)


_JSON_CHECKS = {m: {n: _json_check(f) for n, f in fs.items()} for m, fs in MEDIUM_FIELDS.items()}


def record_dict_plan(keys: tuple, token: object, *field_names: tuple) -> tuple | None:
    """The plan for JSON records of top-level ``keys``, class ``token`` and each medium's
    ``field_names``: the skeleton record, each string empty and each list ``[""]``, and each
    medium's value checks, which may raise instead of answering False. A record passes
    :func:`check_record_dict` and is written back as it is, bar other top-level keys, where
    its code and each value pass; None where none does, or where names are not sorted."""
    if not (media := [m for m in MEDIA if m in keys]) or token != "-".join(media) or any(
            names != tuple(sorted(names)) for names in (keys, *field_names)):
        return None
    skeleton, checks = {"document_code": "", "media_class": token}, []
    for medium, names in zip(media, field_names):
        needed = {f.name for f in dataclasses.fields(_DESCRIPTOR_TYPES[medium])  # always written
                  if f.default not in (None, ())}.union(  # and each sub-class's feature
            n.removesuffix("_subclass") for n in names if n.endswith("_feature_subclass"))
        if not needed <= set(names) <= (fields := MEDIUM_FIELDS[medium]).keys():
            return None
        skeleton[medium] = {n: "" if fields[n].kind.json_type is str else [""] for n in names}
        checks.append((medium, tuple(map(_JSON_CHECKS[medium].__getitem__, names))))
    return skeleton, tuple(checks)


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
    """Decode each field by its kind, as :func:`check_record_dict` accepts it; null is absent."""
    values = {name: value for name, value in data.items() if value is not None}
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
