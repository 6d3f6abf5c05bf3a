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
import json
from dataclasses import dataclass

import numpy as np

from .detector import make_variant
from .errors import ContractViolationError, json_value, read_field


@dataclass(frozen=True)
class Vocab:
    """Word-level vocabulary laid out in fixed id blocks.

    ids 0..6 are structural words (separator, end marker, question words,
    relation words, and a "blank" placeholder answer); subject, object, and
    junk words follow in contiguous ranges.
    """

    n_subjects: int = 64
    n_objects: int = 16
    n_junk: int = 40

    SEP: int = dataclasses.field(default=0, init=False, repr=False)
    EOS: int = dataclasses.field(default=1, init=False, repr=False)
    WH: int = dataclasses.field(default=2, init=False, repr=False)
    AUX: int = dataclasses.field(default=3, init=False, repr=False)
    REL: int = dataclasses.field(default=4, init=False, repr=False)
    IN: int = dataclasses.field(default=5, init=False, repr=False)
    BLANK: int = dataclasses.field(default=6, init=False, repr=False)
    N_SPECIAL: int = dataclasses.field(default=7, init=False, repr=False)

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if f.init and int(getattr(self, f.name)) < 1:
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
class QARecord:
    """One templated question with gold answer and evidence documents."""

    record_id: str
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

    def to_json(self) -> dict:
        return {
            "id": self.record_id,
            "question": list(map(int, self.question)),
            "variant": None if self.variant is None else list(map(int, self.variant)),
            "answer": list(map(int, self.answer)),
            "documents": [list(map(int, doc)) for doc in self.documents],
            "noise_mask": None
            if self.noise_mask is None
            else [[bool(b) for b in mask] for mask in self.noise_mask],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "QARecord":
        tokens = lambda row: [json_value(int, t) for t in row]
        return cls(
            record_id=read_field(payload, "id", str),
            question=read_field(payload, "question", tokens),
            answer=read_field(payload, "answer", tokens),
            documents=read_field(payload, "documents", lambda docs: [tokens(d) for d in docs]),
            variant=read_field(payload, "variant",
                               lambda v: None if v is None else tokens(v), None),
            noise_mask=read_field(
                payload, "noise_mask",
                lambda m: None if m is None else [[json_value(bool, b) for b in row] for row in m],
                None),
        )


def save_records(path, records: list[QARecord]) -> None:
    """Write records as JSON lines (UTF-8, one record per line)."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_json()) + "\n")


def load_records(path) -> list[QARecord]:
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(QARecord.from_json(json.loads(line)))
    return records


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
