"""Toy corpus generator and JSONL persistence tests."""
import numpy as np
import pytest

from dualstream.dataset import (
    QARecord,
    Vocab,
    load_records,
    make_conflict_dataset,
    make_fact_document,
    make_question,
)
from dualstream.detector import make_variant
from dualstream.errors import ContractViolationError, write_jsonl


def test_vocab_layout_is_contiguous_and_bounded():
    v = Vocab()
    ids = [v.SEP, v.EOS, v.WH, v.AUX, v.REL, v.IN, v.BLANK]
    assert ids == list(range(7))
    assert list(v.subject_ids)[0] == 7
    assert v.size == 7 + 64 + 16 + 40
    assert v.size <= 512
    all_ids = ids + list(v.subject_ids) + list(v.object_ids) + list(v.junk_ids)
    assert sorted(all_ids) == list(range(v.size))


def test_vocab_validation():
    with pytest.raises(ContractViolationError, match="n_subjects must be >= 1"):
        Vocab(n_subjects=0)
    with pytest.raises(ContractViolationError,
                       match="vocabulary of 707 symbols exceeds the 512-symbol budget"):
        Vocab(n_subjects=500, n_objects=100, n_junk=100)
    for bad in (dict(n_subjects=2.5), dict(n_junk=True), dict(n_objects="16")):
        with pytest.raises(ContractViolationError, match=next(iter(bad))):
            Vocab(**bad)


def test_gold_object_map_is_deterministic_and_total():
    v = Vocab()
    for s in v.subject_ids:
        obj = v.gold_object(s)
        assert obj in v.object_ids
    assert v.gold_object(v.subject_ids[0]) == v.object_ids[0]
    assert v.gold_object(v.subject_ids[v.n_objects]) == v.object_ids[0]
    with pytest.raises(ContractViolationError, match="token 2 is not a subject word"):
        v.gold_object(v.WH)


def test_record_invariants():
    rec = QARecord("r0", [2, 3, 7, 4], [80], [[7, 4, 5, 80, 1]])
    assert rec.variant is None
    with pytest.raises(ContractViolationError,
                       match="variant must have the same length as the question"):
        QARecord("r1", [2, 3, 7, 4], [80], [], variant=[7, 3, 4])
    with pytest.raises(ContractViolationError,
                       match="noise_mask rows must align with document tokens"):
        QARecord("r2", [2, 3, 7, 4], [80], [[7, 4]], noise_mask=[[True]])
    with pytest.raises(ContractViolationError, match="noise_mask must align with documents"):
        QARecord("r3", [2, 3, 7, 4], [80], [[7, 4]], noise_mask=[[True], [False]])
    with pytest.raises(ContractViolationError, match="question must be non-empty"):
        QARecord("r4", [], [80], [])
    with pytest.raises(ContractViolationError, match="answer must be non-empty"):
        QARecord("r5", [2, 3, 7, 4], [], [])


def test_templates_match_variant_rule():
    v = Vocab()
    subject = v.subject_ids[5]
    question = make_question(v, subject)
    assert question == [v.WH, v.AUX, v.REL, subject]
    assert make_variant(question, {v.WH}, {v.AUX}) == [v.REL, v.AUX, subject, v.WH]
    for rec in make_conflict_dataset(64, v, 0.5, seed=3):
        assert rec.variant == make_variant(rec.question, {v.WH}, {v.AUX})
    doc = make_fact_document(v, subject, v.object_ids[2])
    assert doc == [v.IN, v.object_ids[2], subject, v.REL, v.EOS]


def test_dataset_deterministic_and_gold_doc_first():
    v = Vocab()
    a = make_conflict_dataset(64, v, 0.5, seed=9)
    b = make_conflict_dataset(64, v, 0.5, seed=9)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]
    c = make_conflict_dataset(64, v, 0.5, seed=10)
    assert [r.to_json() for r in a] != [r.to_json() for r in c]
    for rec in a:
        subject = rec.question[3]
        assert rec.documents[0] == make_fact_document(v, subject, rec.answer[0])
        assert rec.answer == [v.gold_object(subject)]
        assert not any(rec.noise_mask[0])


def test_noise_rate_zero_masks_empty():
    v = Vocab()
    for rec in make_conflict_dataset(32, v, 0.0, seed=1):
        assert len(rec.documents) == 1
        assert not any(any(row) for row in rec.noise_mask)


def test_noise_rate_one_every_record_carries_distractor_span():
    v = Vocab()
    for rec in make_conflict_dataset(32, v, 1.0, seed=2):
        assert len(rec.documents) == 3
        flagged = [i for i, mask in enumerate(rec.noise_mask) if any(mask)]
        assert flagged == [1, 2]
        false_objs = {rec.documents[1][1], rec.documents[2][1]}
        assert len(false_objs) == 1  # the same false object, repeated
        assert rec.answer[0] not in false_objs
        distractor_subjects = {rec.documents[1][2], rec.documents[2][2]}
        assert rec.question[3] not in distractor_subjects
        assert len(distractor_subjects) == 2


def test_subjects_cover_vocabulary_once_per_cycle():
    v = Vocab()
    recs = make_conflict_dataset(64, v, 1.0, seed=3)
    assert sorted(r.question[3] for r in recs) == sorted(v.subject_ids)


def test_dataset_validation():
    v = Vocab()
    with pytest.raises(ContractViolationError, match="n_records must be >= 1"):
        make_conflict_dataset(0, v, 0.5, seed=0)
    with pytest.raises(ContractViolationError, match=r"noise_rate must lie in \[0, 1\]"):
        make_conflict_dataset(4, v, 1.5, seed=0)
    with pytest.raises(ContractViolationError,
                       match="vocabulary too small for the question templates"):
        make_conflict_dataset(4, Vocab(n_subjects=2), 0.5, seed=0)
    with pytest.raises(ContractViolationError,
                       match="vocabulary too small for the question templates"):
        make_conflict_dataset(4, Vocab(n_objects=1), 0.5, seed=0)


def test_jsonl_round_trip(tmp_path):
    v = Vocab()
    recs = make_conflict_dataset(16, v, 0.7, seed=4)
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [r.to_json() for r in recs])
    back = load_records(path)
    assert [r.to_json() for r in back] == [r.to_json() for r in recs]
    text = path.read_text(encoding="utf-8")
    assert len(text.strip().splitlines()) == 16


def test_round_trip_preserves_none_fields(tmp_path):
    rec = QARecord("solo", [2, 3, 8, 4], [80], [[8, 4, 5, 80, 1]])
    path = tmp_path / "one.jsonl"
    write_jsonl(path, [rec.to_json()])
    back = load_records(path)[0]
    assert back.variant is None and back.noise_mask is None
    assert back.question == rec.question
