"""The JSON codec's edge cases, one row each: what it refuses, accepts and writes."""
import json
import re
import types
import typing

import pytest

from dualstream import errors
from dualstream.dataset import QARecord, Vocab
from dualstream.detector import DetectionVerdict
from dualstream.errors import ContractViolationError, JsonRecord, read_jsonl
from dualstream.fusion import DsspParams
from dualstream.model import ModelConfig
from dualstream.pipeline import PipelineTrace, RunConfig
from dualstream.training import Hyperparams

_RECORD = {"id": "r0", "question": [2, 3, 4, 8], "answer": [80], "documents": [[5, 80, 8, 4, 1]]}
_VERDICT = {"hallucination": False, "statistic": 0.5, "delta": 1.0, "aggregation": "tail_sum(2)",
            "insertion_layer": 3, "per_layer": [0.25, 0.5]}
_TRACE = {"record_id": "r0", "verdict": _VERDICT, "filter": "skipped", "answer": [80],
          "forced": False}
_MODEL_CONFIG = {"n_layers": 6, "n_heads": 2, "d_model": 158, "d_ff": 64, "vocab_size": 151,
                 "max_seq": 48, "seed": 3}


class _ModelConfigCall:
    """Reads a document as Python code would build the config: ``ModelConfig(**doc)``."""
    from_json = staticmethod(lambda doc: ModelConfig(**doc))


class _DsspParamsCall:
    """Builds fusion parameters with the document's fields: ``DsspParams(**arrays, **doc)``."""
    from_json = staticmethod(lambda doc: DsspParams(**DsspParams.init_random(2).to_arrays(), **doc))


class _HyperparamsCall:
    """Builds training hyperparameters from the document: ``Hyperparams(**doc)``."""
    from_json = staticmethod(lambda doc: Hyperparams(**doc))


def _round_trip(record):
    return type(record).from_json(record.to_json()).to_json() == record.to_json()


# (reader, document, the error it must raise, or a predicate on what it reads)
_CASES = {
    "trace_filter_null_refused": (PipelineTrace, {**_TRACE, "filter": None},
                                  "field 'filter': expected a JSON object, got NoneType"),
    # a flagged or forced record always runs the filter, so a trace that skips it is refused
    "trace_flagged_filter_skipped_refused": (
        PipelineTrace, {**_TRACE, "verdict": {**_VERDICT, "hallucination": True}},
        "filter stage skipped although the verdict or force_retrieval gated it in"),
    "trace_forced_filter_skipped_refused": (
        PipelineTrace, {**_TRACE, "forced": True},
        "filter stage skipped although the verdict or force_retrieval gated it in"),
    "record_variant_null_accepted": (QARecord, {**_RECORD, "variant": None},
                                     lambda r: r.variant is None),
    # wall-clock ``timings`` are no part of a trace's JSON form, read or written
    "trace_timings_and_forced_absent_accepted": (
        PipelineTrace, {k: v for k, v in _TRACE.items() if k != "forced"},
        lambda t: t.timings == {} and t.forced is False and "timings" not in t.to_json()),
    "trace_timings_refused": (PipelineTrace, {**_TRACE, "timings": {"detect": 0.25}},
                              "field 'timings': PipelineTrace has no such field"),
    "record_id_absent_refused": (QARecord, {k: v for k, v in _RECORD.items() if k != "id"},
                                 "missing field 'id'"),
    "bool_for_int_refused": (DetectionVerdict, {**_VERDICT, "insertion_layer": True},
                             "field 'insertion_layer': expected int, got bool"),
    "int_read_as_float": (DetectionVerdict, {**_VERDICT, "statistic": 2},
                          lambda v: type(v.statistic) is float and v.statistic == 2.0),
    "skipped_round_trips": (PipelineTrace, _TRACE,
                            lambda t: t.filter is None and t.to_json()["filter"] == "skipped"
                            and _round_trip(t)),
    "record_writes_id_not_record_id": (QARecord, _RECORD,
                                       lambda r: r.to_json()["id"] == "r0"
                                       and "record_id" not in r.to_json() and _round_trip(r)),
    # a key no field names is refused, so a misspelt optional field cannot load as absent
    "record_misspelt_variant_refused": (QARecord, {**_RECORD, "varaint": [1]},
                                        "field 'varaint': QARecord has no such field"),
    "record_field_name_for_its_key_refused": (
        QARecord, {**{k: v for k, v in _RECORD.items() if k != "id"}, "record_id": "r0"},
        "field 'record_id': QARecord has no such field"),
    "trace_unknown_key_refused": (PipelineTrace, {**_TRACE, "notes": "x"},
                                  "field 'notes': PipelineTrace has no such field"),
    # a refusal inside a nested record names the dotted path to the field
    "verdict_unknown_key_refused": (PipelineTrace, {**_TRACE, "verdict": {**_VERDICT, "p": 1}},
                                    "field 'verdict.p': DetectionVerdict has no such field"),
    "verdict_field_absent_refused": (
        PipelineTrace, {**_TRACE, "verdict": {k: v for k, v in _VERDICT.items() if k != "delta"}},
        "missing field 'verdict.delta'"),
    "config_int_read_as_float": (RunConfig, {"lam": 80},
                                 lambda c: type(c.lam) is float and c.to_json()["lam"] == 80.0
                                 and type(c.to_json()["lam"]) is float and _round_trip(c)),
    "config_unknown_key_refused": (RunConfig, {"lam": 80.0, "budget": 3},
                                   "field 'budget': RunConfig has no such field"),
    "model_config_round_trips": (ModelConfig, _MODEL_CONFIG,
                                 lambda c: c == ModelConfig(**_MODEL_CONFIG) and _round_trip(c)),
    # a config built from Python is held to its annotations as a JSON one is
    "model_config_float_layers_refused": (_ModelConfigCall, {**_MODEL_CONFIG, "n_layers": 2.5},
                                          "field 'n_layers': expected int, got float"),
    "model_config_string_layers_refused": (_ModelConfigCall, {**_MODEL_CONFIG, "n_layers": "2"},
                                           "field 'n_layers': expected int, got str"),
    "model_config_negative_seed_refused": (_ModelConfigCall, {**_MODEL_CONFIG, "seed": -1},
                                           "seed must be >= 0, got -1"),
    "model_config_json_negative_seed_refused": (ModelConfig, {**_MODEL_CONFIG, "seed": -1},
                                                "seed must be >= 0, got -1"),
    # top_t is saved as a float64: a fraction or an integer past 2**53 would not load back
    "fusion_top_t_float_refused": (_DsspParamsCall, {"top_t": 2.5},
                                   "field 'top_t': expected int, got float"),
    "fusion_top_t_bool_refused": (_DsspParamsCall, {"top_t": True},
                                  "field 'top_t': expected int, got bool"),
    "fusion_top_t_past_2_53_refused": (_DsspParamsCall, {"top_t": 2**53 + 1},
                                       "top_t must lie in 1..2**53"),
    "fusion_top_t_2_53_accepted": (_DsspParamsCall, {"top_t": 2**53},
                                   lambda p: p.top_t == 2**53),
    "hyperparams_float_epochs_refused": (_HyperparamsCall, {"epochs": 2.5},
                                         "field 'epochs': expected int, got float"),
    "hyperparams_bool_epochs_refused": (_HyperparamsCall, {"epochs": True},
                                        "field 'epochs': expected int, got bool"),
    "hyperparams_negative_seed_refused": (_HyperparamsCall, {"seed": -1},
                                          "seed must be >= 0, got -1"),
    "hyperparams_string_lr_refused": (_HyperparamsCall, {"lr": "0.1"},
                                      "field 'lr': expected float, got str"),
    "hyperparams_int_lr_accepted": (_HyperparamsCall, {"lr": 1}, lambda h: h.lr == 1),
    "vocab_round_trips": (Vocab, {"n_subjects": 64, "n_objects": 4, "n_junk": 80},
                          lambda v: v == Vocab(64, 4, 80) and v.size == 155 and _round_trip(v)),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_codec_edge_cases(case):
    reader, doc, want = _CASES[case]
    if isinstance(want, str):
        with pytest.raises(ContractViolationError, match=re.escape(want)):
            reader.from_json(doc)
    else:
        assert want(reader.from_json(doc))


def test_jsonl_reader_names_the_file_and_the_physical_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(f"\n{json.dumps(_RECORD)}\n[1, 2\n")  # blank lines count too
    with pytest.raises(ContractViolationError, match=re.escape(f"{path} line 3 is not valid JSON")):
        read_jsonl(path, QARecord)


def _codec_reads(kind) -> bool:
    """Whether ``errors.json_value`` and ``errors.json_of`` read and write the annotation
    ``kind``: a scalar, a bare ``list`` or ``dict``, the ``ndarray`` alias, ``T | None``,
    ``list[T]``, ``tuple[T, ...]`` or a ``JsonRecord``."""
    kind = errors._ALIASES.get(kind, kind)
    if kind in errors._JSON_TYPES:
        return True
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:
        return len(args) == 2 and args[1] is type(None) and _codec_reads(args[0])
    if origin is not None:
        tuple_of_any_length = origin is tuple and args[1:] == (...,)
        return (origin is list or tuple_of_any_length) and _codec_reads(args[0])
    return isinstance(kind, type) and issubclass(kind, JsonRecord)


def _subclasses(cls) -> list[type]:
    return [c for sub in cls.__subclasses__() for c in [sub, *_subclasses(sub)]]


def test_every_json_field_has_an_annotation_the_codec_reads():
    """Each keyed field of every ``JsonRecord`` in ``src/`` (conftest imports them all):
    a field the codec cannot read fails here, not in a traceback when a document loads."""
    records = {c for c in _subclasses(JsonRecord) if c.__module__.startswith("dualstream.")}
    assert {QARecord, Vocab, DetectionVerdict, PipelineTrace, RunConfig, ModelConfig} <= records
    unread = [f"{cls.__name__}.{f.name}: {errors.field_types(cls)[f.name]}"
              for cls in records for f in errors._json_fields(cls).values()
              if not _codec_reads(errors.field_types(cls)[f.name])]
    assert unread == []
    assert not _codec_reads(dict[str, float]) and not _codec_reads(tuple[int, int])
