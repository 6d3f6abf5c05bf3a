"""Toy QA corpus: closed template grammar, conflict injection, JSONL persistence.

Records are single-fact questions ("where was S born") over a word-level
vocabulary of at most 512 symbols.  Each record's evidence starts with the
gold fact document; conflicting records append distractor documents that
assert one false object about two other subjects, so an unfiltered reader
that counts claims is pulled toward the wrong answer.  Distractor tokens are
flagged in ``noise_mask``.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .detector import make_variant
from .errors import ContractViolationError, JsonRecord, read_field, read_jsonl


@dataclass(frozen=True)
class Vocab(JsonRecord):
    """Word-level vocabulary laid out in fixed id blocks.

    ids 0..6 are structural words (separator, end marker, question words,
    relation words, and a "blank" placeholder answer); subject, object, and
    junk words follow in contiguous ranges.
    """

    n_subjects: int = 64
    n_objects: int = 16
    n_junk: int = 40

    SEP = 0
    EOS = 1
    WH = 2
    AUX = 3
    REL = 4
    IN = 5
    BLANK = 6
    N_SPECIAL = 7

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if read_field(vars(self), f.name, int) < 1:
                raise ContractViolationError(f"{f.name} must be >= 1")
        if self.size > 512:
            raise ContractViolationError(
                f"vocabulary of {self.size} symbols exceeds the 512-symbol budget"
            )

    @property
    def size(self) -> int:
        return self.N_SPECIAL + self.n_subjects + self.n_objects + self.n_junk

    @property
    def subject_ids(self) -> range:
        return range(self.N_SPECIAL, self.N_SPECIAL + self.n_subjects)

    @property
    def object_ids(self) -> range:
        start = self.N_SPECIAL + self.n_subjects
        return range(start, start + self.n_objects)

    @property
    def junk_ids(self) -> range:
        start = self.N_SPECIAL + self.n_subjects + self.n_objects
        return range(start, start + self.n_junk)

    def gold_object(self, subject: int) -> int:
        """Canonical subject -> object fact map shared by corpus and fixtures."""
        if subject not in self.subject_ids:
            raise ContractViolationError(f"token {subject} is not a subject word")
        return self.object_ids[(subject - self.subject_ids[0]) % self.n_objects]


@dataclass
class QARecord(JsonRecord):
    """One templated question with gold answer and evidence documents."""

    record_id: str = dataclasses.field(metadata={"json": "id"})
    question: list[int]
    answer: list[int]
    documents: list[list[int]]
    variant: list[int] | None = None
    noise_mask: list[list[bool]] | None = None

    def __post_init__(self) -> None:
        if not self.question:
            raise ContractViolationError("question must be non-empty")
        if not self.answer:
            raise ContractViolationError("answer must be non-empty")
        if self.variant is not None and len(self.variant) != len(self.question):
            raise ContractViolationError(
                "variant must have the same length as the question"
            )
        if self.noise_mask is not None:
            if len(self.noise_mask) != len(self.documents):
                raise ContractViolationError(
                    "noise_mask must align with documents"
                )
            for mask, doc in zip(self.noise_mask, self.documents):
                if len(mask) != len(doc):
                    raise ContractViolationError(
                        "noise_mask rows must align with document tokens"
                    )


def load_records(path) -> list[QARecord]:
    return read_jsonl(path, QARecord)


def make_question(vocab: Vocab, subject: int) -> list[int]:
    """Question template: [wh, aux, relation, subject]."""
    return [vocab.WH, vocab.AUX, vocab.REL, int(subject)]


def make_fact_document(vocab: Vocab, subject: int, obj: int) -> list[int]:
    """Fact template: [filler, object, subject, relation, end]."""
    return [vocab.IN, int(obj), int(subject), vocab.REL, vocab.EOS]


def make_conflict_dataset(
    n_records: int,
    vocab: Vocab,
    noise_rate: float,
    seed: int,
) -> list[QARecord]:
    """Generate a deterministic conflict corpus.

    Every record carries the gold fact document first.  With probability
    ``noise_rate`` a record additionally receives two distractor documents
    that repeat one false object about two other subjects; their tokens are
    flagged in ``noise_mask``.  The question variant is the cleft reordering
    of the question, stored on the record so downstream stages never have to
    re-derive it.
    """
    if n_records < 1:
        raise ContractViolationError("n_records must be >= 1")
    if not 0.0 <= float(noise_rate) <= 1.0:
        raise ContractViolationError("noise_rate must lie in [0, 1]")
    if vocab.n_subjects < 3 or vocab.n_objects < 2:
        raise ContractViolationError(
            "vocabulary too small for the question templates"
        )
    rng = np.random.default_rng(seed)
    subjects = list(vocab.subject_ids)
    order = [int(s) for s in rng.permutation(subjects)]
    records = []
    for i in range(n_records):
        subject = order[i % len(order)]
        gold = vocab.gold_object(subject)
        question = make_question(vocab, subject)
        variant = make_variant(question, {vocab.WH}, {vocab.AUX})
        documents = [make_fact_document(vocab, subject, gold)]
        noise_mask = [[False] * len(documents[0])]
        if float(rng.random()) < float(noise_rate):
            false_obj = vocab.object_ids[
                (gold - vocab.object_ids[0] + 1 + int(rng.integers(vocab.n_objects - 1)))
                % vocab.n_objects
            ]
            others = [s for s in subjects if s != subject]
            pair = rng.choice(len(others), size=2, replace=False)
            for j in pair:
                doc = make_fact_document(vocab, others[int(j)], false_obj)
                documents.append(doc)
                noise_mask.append([True] * len(doc))
        records.append(
            QARecord(
                record_id=f"rec{i:04d}",
                question=question,
                answer=[gold],
                documents=documents,
                variant=variant,
                noise_mask=noise_mask,
            )
        )
    return records
