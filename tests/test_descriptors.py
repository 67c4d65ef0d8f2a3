from __future__ import annotations

import dataclasses
from datetime import date

import pytest

from mediacube.codes import DocumentCode, parse_document_code
from mediacube.descriptors import (
    BUILTIN_VOCABULARIES,
    MEDIA,
    SCHEMA_FIELDS,
    DuplicateDescriptor,
    GenericRecord,
    ImageDescriptor,
    SoundDescriptor,
    TextDescriptor,
    attach_descriptor,
    descriptor_from_dict,
    descriptor_to_dict,
    record_from_dict,
    record_to_dict,
    required_fields,
    validate_record,
)
from mediacube.taxonomy import MediaClass, classify

CODE = DocumentCode.compound("s01", "x1")


def text_record(**overrides):
    fields = {"title": "A title"}
    fields.update(overrides)
    return GenericRecord(document_code=CODE, media_class=MediaClass.TEXT,
                         text=TextDescriptor(**fields))


def image_descriptor(**overrides):
    fields = {
        "dominant_colour": "red",
        "dominant_shape": "oval",
        "image_format": "jpeg",
        "image_medium": "electronic",
        "image_type": "digital image",
    }
    fields.update(overrides)
    return ImageDescriptor(**fields)


def test_sound_record_validates_clean():
    record = GenericRecord(
        document_code=CODE,
        media_class=MediaClass.SOUND,
        sound=SoundDescriptor(originator="radio one", sound_type="music"),
    )
    report = validate_record(record)
    assert report.empty


def test_class_descriptor_mismatch_is_a_violation():
    record = GenericRecord(
        document_code=CODE,
        media_class=MediaClass.TEXT,
        text=TextDescriptor(title="t"),
        image=image_descriptor(),
    )
    report = validate_record(record)
    assert not report.ok
    assert any(p.rule == "descriptor/class-mismatch" and p.field == "image"
               for p in report.violations)


def test_closed_vocabulary_violation_names_the_field():
    record = GenericRecord(
        document_code=CODE,
        media_class=MediaClass.IMAGE,
        image=image_descriptor(dominant_shape="dodecagon"),
    )
    report = validate_record(record)
    assert [p.field for p in report.violations] == ["image.dominant_shape"]
    assert report.violations[0].rule == "vocabulary"


def test_open_vocabulary_miss_is_a_warning():
    record = GenericRecord(
        document_code=CODE,
        media_class=MediaClass.IMAGE,
        image=image_descriptor(dominant_feature="architecture"),
    )
    report = validate_record(record)
    assert report.ok
    assert [p.field for p in report.warnings] == ["image.dominant_feature"]
    assert report.warnings[0].rule == "open-vocabulary"


def test_empty_title_is_a_required_field_violation():
    report = validate_record(text_record(title=""))
    assert any(p.field == "text.title" and p.rule == "required-field"
               for p in report.violations)


def test_subclass_requires_feature_and_parent_child_form():
    record = GenericRecord(
        document_code=CODE,
        media_class=MediaClass.IMAGE,
        image=image_descriptor(dominant_feature_subclass="mammal"),
    )
    rules = {p.rule for p in validate_record(record).violations}
    assert "subclass-without-feature" in rules
    assert "subclass-form" in rules


def test_dangling_related_document_warns_when_codes_known():
    record = text_record(related_documents=(parse_document_code("s01:ghost"),))
    report = validate_record(record, known_codes={"s01:x1"})
    assert report.ok
    assert any(p.rule == "dangling-reference" for p in report.warnings)
    # Without a known-code universe the reference is not checked.
    assert validate_record(record).empty


def test_builtin_vocabularies_are_pinned():
    v = BUILTIN_VOCABULARIES
    assert v["colour"].members == {"red", "orange", "yellow", "green", "blue",
                                   "indigo", "violet", "grey", "black", "white"}
    assert v["shape"].members == {"oval", "circle", "square", "rectangle", "triangle",
                                  "cylindrical", "rhombus", "irregular", "line"}
    assert v["medium"].members == {"wood", "electronic", "paper", "glass", "stone",
                                   "plastic", "composite"}
    assert v["sound-type"].members == {"noise", "music", "voice"}
    assert v["target"].members == {"public", "private", "not-specified"}
    assert not v["colour"].open and not v["shape"].open and not v["medium"].open
    assert not v["sound-type"].open and not v["target"].open
    assert v["feature"].open and v["object"].open and v["image-type"].open


def test_required_field_lists():
    assert required_fields("text") == ["text.title"]
    assert set(required_fields("image")) == {
        "image.dominant_colour", "image.dominant_shape", "image.image_format",
        "image.image_medium", "image.image_type",
    }
    assert set(required_fields("sound")) == {"sound.originator", "sound.sound_type"}


def test_attach_sound_to_text_gives_text_sound():
    record = attach_descriptor(
        text_record(), SoundDescriptor(originator="o", sound_type="voice"))
    assert record.media_class is MediaClass.TEXT_SOUND
    assert record.text is not None and record.sound is not None


def test_attach_text_completes_the_full_set():
    base = GenericRecord(
        document_code=CODE,
        media_class=MediaClass.IMAGE_SOUND,
        image=image_descriptor(),
        sound=SoundDescriptor(originator="o", sound_type="noise"),
    )
    record = attach_descriptor(base, TextDescriptor(title="t"))
    assert record.media_class is MediaClass.TEXT_IMAGE_SOUND


def test_attach_duplicate_descriptor_rejected():
    with pytest.raises(DuplicateDescriptor):
        attach_descriptor(text_record(), TextDescriptor(title="again"))


def test_attach_keeps_existing_fields():
    base = text_record(author="Someone", descriptors=("k1", "k2"))
    record = attach_descriptor(base, image_descriptor())
    assert record.text == base.text
    assert record.document_code == base.document_code


def test_valid_record_class_agrees_with_presence():
    record = attach_descriptor(text_record(), image_descriptor())
    report = validate_record(record)
    assert report.ok
    assert classify(record.presence) is record.media_class


def test_schema_fields_match_the_descriptor_dataclasses():
    # The schema is declared twice, as dataclasses and as SCHEMA_FIELDS; they must agree.
    assert {spec.medium for spec in SCHEMA_FIELDS.values()} == set(MEDIA)
    for medium, cls in (("text", TextDescriptor), ("image", ImageDescriptor),
                        ("sound", SoundDescriptor)):
        specs = {s.attribute: s for s in SCHEMA_FIELDS.values() if s.medium == medium}
        fields = {f.name: f for f in dataclasses.fields(cls)}
        assert fields.keys() == specs.keys(), medium
        for name, f in fields.items():
            has_default = (f.default is not dataclasses.MISSING
                           or f.default_factory is not dataclasses.MISSING)
            assert specs[name].required is not has_default, f"{medium}.{name}"


# The generic schema as it was declared by hand, field by field: (kind, required, vocabulary).
HAND_DECLARED_SCHEMA = {
    "text.author": ("label", False, None),
    "text.title": ("label", True, None),
    "text.summary": ("label", False, None),
    "text.reference_date": ("date", False, None),
    "text.descriptors": ("labels", False, None),
    "text.related_documents": ("codes", False, None),
    "image.dominant_colour": ("label", True, "colour"),
    "image.secondary_colour": ("label", False, "colour"),
    "image.dominant_shape": ("label", True, "shape"),
    "image.secondary_shape": ("label", False, "shape"),
    "image.shape_specificity": ("label", False, "shape-specificity"),
    "image.dominant_object": ("label", False, "object"),
    "image.object_specificity": ("label", False, "object-specificity"),
    "image.secondary_object": ("label", False, "object"),
    "image.dominant_feature": ("label", False, "feature"),
    "image.secondary_feature": ("label", False, "feature"),
    "image.dominant_feature_subclass": ("label", False, "feature-subclass"),
    "image.secondary_feature_subclass": ("label", False, "feature-subclass"),
    "image.image_format": ("label", True, None),
    "image.image_medium": ("label", True, "medium"),
    "image.image_type": ("label", True, "image-type"),
    "sound.originator": ("label", True, None),
    "sound.target": ("label", False, "target"),
    "sound.descriptors": ("labels", False, None),
    "sound.publication_date": ("date", False, None),
    "sound.sound_type": ("label", True, "sound-type"),
    "sound.sound_class": ("label", False, "sound-class"),
    "sound.sound_subclass": ("label", False, "sound-subclass"),
}


def test_schema_derived_from_the_dataclasses_equals_the_hand_declared_table():
    derived = {path: (spec.kind.name, spec.required, spec.vocabulary)
               for path, spec in SCHEMA_FIELDS.items()}
    assert derived == HAND_DECLARED_SCHEMA
    for path, spec in SCHEMA_FIELDS.items():
        assert (spec.medium, spec.attribute) == tuple(path.split(".")), path


def test_descriptor_dict_round_trip():
    descriptor = TextDescriptor(
        title="T", author="A", summary="S",
        reference_date=date(2023, 4, 5),
        descriptors=("k1", "k2"),
        related_documents=(DocumentCode.compound("s01", "other"),),
    )
    data = descriptor_to_dict(descriptor)
    assert data["reference_date"] == "2023-04-05"
    assert data["related_documents"] == ["s01:other"]
    assert descriptor_from_dict("text", data) == descriptor


def test_record_dict_round_trip():
    record = GenericRecord(
        document_code=CODE,
        media_class=MediaClass.TEXT_IMAGE,
        text=TextDescriptor(title="T"),
        image=image_descriptor(secondary_colour="blue"),
    )
    data = record_to_dict(record)
    assert data["media_class"] == "text-image"
    assert record_from_dict(data) == record


def test_descriptors_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        text_record().text.title = "changed"


def test_caller_supplied_vocabulary_set_overrides_builtins():
    from mediacube.descriptors import ControlledVocabulary
    strict = ControlledVocabulary(name="image-type",
                                  members=frozenset({"sketch"}), open=False)
    record = GenericRecord(
        document_code=CODE,
        media_class=MediaClass.IMAGE,
        image=image_descriptor(image_type="digital image"),
    )
    report = validate_record(record, vocabularies={strict})
    assert any(p.field == "image.image_type" and p.rule == "vocabulary"
               for p in report.violations)


def test_attach_table_is_exhaustive():
    from mediacube.taxonomy import decompose

    samples = {
        "text": TextDescriptor(title="t"),
        "image": image_descriptor(),
        "sound": SoundDescriptor(originator="o", sound_type="noise"),
    }
    for media_class in MediaClass:
        presence = decompose(media_class)
        base = GenericRecord(
            document_code=CODE,
            media_class=media_class,
            **{m: samples[m] if getattr(presence, m) else None for m in samples},
        )
        for medium, descriptor in samples.items():
            if getattr(presence, medium):
                with pytest.raises(DuplicateDescriptor):
                    attach_descriptor(base, descriptor)
            else:
                grown = attach_descriptor(base, descriptor)
                expected = dataclasses.replace(presence, **{medium: True})
                assert grown.media_class is classify(expected)
                assert validate_record(grown).ok
