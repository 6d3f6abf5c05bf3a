"""Batch command-line front end.

Every subcommand reads an optional JSON config (``--config``), applies
``--seed``/``--out`` overrides, writes a config echo plus JSON reports into
the output directory, and prints a one-line summary.  Contract violations
exit nonzero with a single machine-parseable ``error:<Type>:`` line on
stderr.  Wall-clock numbers go to a separate ``timings.json`` so every other
output file is bit-reproducible from the echoed config.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import time

from .dataset import load_records
from .errors import (
    ContractViolationError,
    TrainingDivergedError,
    read_jsonl,
    write_json,
    write_jsonl,
)
from .filtering import classify_layers, entropy_gate, pruning_sweep
from .fixtures import fixture_dataset
from .fusion import save_dssp_params
from .model import forward  # noqa: F401  -- kept bound here for the benchmark's tracer test
from .pipeline import (
    PipelineTrace,
    RunConfig,
    detect_stage,
    evaluate,
    filter_stage,
    load_bundle,
    load_config,
    load_host,
    make_train_examples,
    probe_calibration,
    probe_questions,
    run_records,
    write_config_echo,
)
from .synth import MAX_D_MODEL, MAX_TOKENS, MAX_TRIALS, suppression_study
from .training import GridPoint, Hyperparams, TrainStep, grid_search, train


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file mirroring RunConfig field names")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", help="override the config output directory")


def _add_records(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--records", help="JSONL file of QA records")
    group.add_argument("--fixture", type=int, metavar="N",
                       help="generate N records from the built-in corpus")
    sub.add_argument("--noise", type=float, default=1.0,
                     help="distractor rate for --fixture (default 1.0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualstream",
        description="divergence-gated retrieval with filtered dual-stream fusion")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("detect", help="flag questions whose reworded variant diverges")
    _add_common(p)
    _add_records(p)

    p = subs.add_parser("analyze-layers", help="layer-pruning entropy sweep and classification")
    _add_common(p)
    _add_records(p)
    p.add_argument("--csv", action="store_true", help="also write layers.csv")

    p = subs.add_parser("filter", help="energy-quotient profiles for each record's evidence")
    _add_common(p)
    _add_records(p)

    p = subs.add_parser("train", help="fit the fused cross-attention parameters")
    _add_common(p)
    _add_records(p)
    p.add_argument("--epochs", type=int, help="override the default epoch count")
    p.add_argument("--lr", type=float, help="override the default learning rate")
    p.add_argument("--csv", action="store_true", help="also write train_steps.csv")

    p = subs.add_parser("eval", help="score persisted traces against records")
    _add_common(p)
    p.add_argument("--records", required=True, help="JSONL file of QA records")
    p.add_argument("--traces", required=True, help="JSONL file written by `pipeline`")

    p = subs.add_parser("demo-decompose", help="planted-subspace suppression study")
    _add_common(p)
    p.add_argument("--trials", type=int, default=100, help=f"1..{MAX_TRIALS} (default 100)")
    p.add_argument("--d-model", type=int, default=32, help=f"1..{MAX_D_MODEL} (default 32)")
    p.add_argument("--tokens", type=int, default=8, help=f"1..{MAX_TOKENS} (default 8)")
    p.add_argument("--dims", type=int, nargs=3, default=(4, 4, 4),
                   metavar=("SHARED", "PRIVATE_X", "PRIVATE_Y"))
    p.add_argument("--noise-scale", type=float, default=0.1)

    p = subs.add_parser("grid-search", help="coarse-then-fine (mu, nu) sweep")
    _add_common(p)
    _add_records(p)
    p.add_argument("--epochs", type=int, default=1,
                   help="epochs per grid point when records are given")
    p.add_argument("--center-mu", type=float, default=0.55,
                   help="quadratic demo objective center (no records)")
    p.add_argument("--center-nu", type=float, default=0.10)
    p.add_argument("--csv", action="store_true", help="also write grid.csv")

    p = subs.add_parser("pipeline", help="full detect -> filter -> fused decode run")
    _add_common(p)
    _add_records(p)
    p.add_argument("--force-retrieval", action="store_true",
                   help="run the filter+fusion path on every record")

    return parser


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out_dir"] = args.out
    if getattr(args, "force_retrieval", False):
        updates["force_retrieval"] = True
    return dataclasses.replace(config, **updates) if updates else config


def _echo(config: RunConfig, args, argv) -> str:
    out_dir = config.out_dir
    write_config_echo(config, out_dir)
    argv_echo = {"command": args.command, "argv": list(argv)}
    write_jsonl(os.path.join(out_dir, "argv_echo.json"), [argv_echo])  # one line
    return out_dir


def _resolve_records(args, config: RunConfig):
    if args.records is not None:
        return load_records(args.records)
    if args.fixture is not None:
        return fixture_dataset(args.fixture, noise_rate=args.noise, seed=config.seed)
    raise ContractViolationError("provide --records or --fixture")


def _training_setup(args, config: RunConfig):
    """The bundle, plus one training example per record."""
    bundle = load_bundle(config)
    records = _resolve_records(args, config)
    return bundle, make_train_examples(bundle.model, records, bundle.vocab,
                                       bundle.calibration.offset_layer)


def _queries_for_sweep(args, config: RunConfig, vocab):
    if args.records is not None or args.fixture is not None:
        seen: dict[tuple, None] = {}
        for record in _resolve_records(args, config):
            seen.setdefault(tuple(record.question))
        return [list(q) for q in seen]
    if vocab is None:
        raise ContractViolationError(
            "checkpoint metadata has no vocabulary; pass --records or --fixture")
    return probe_questions(vocab)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_detect(args, config: RunConfig, out_dir: str) -> str:
    model, vocab = load_host(config)
    records = _resolve_records(args, config)
    rows = [{"record_id": record.record_id, **verdict.to_json()}
            for record, (verdict, _) in zip(records, detect_stage(model, records, vocab, config))]
    write_jsonl(os.path.join(out_dir, "detect.jsonl"), rows)
    flagged = sum(r["hallucination"] for r in rows)
    write_json(os.path.join(out_dir, "detect_summary.json"), {
        "n_records": len(rows), "flagged": flagged,
        "flagged_rate": flagged / len(rows) if rows else 0.0,
        "delta": config.delta, "aggregation": config.aggregation,
    })
    return f"checked {len(rows)} records, flagged {flagged} -> {out_dir}/detect.jsonl"


def _cmd_analyze_layers(args, config: RunConfig, out_dir: str) -> str:
    model, vocab = load_host(config)
    queries = _queries_for_sweep(args, config, vocab)
    sweep = pruning_sweep(model, queries)
    cal = classify_layers(sweep)
    epsilon, delta_entropy = entropy_gate(cal.entropy_orig, cal.entropy_offset)
    doc = {
        "n_queries": len(queries),
        "baseline_entropy": float(sweep.baseline_entropy),
        "layer_entropies": [float(h) for h in sweep.layer_entropies],
        "deltas": [float(d) for d in sweep.deltas],
        "key_layer": cal.key_layer,
        "offset_layer": cal.offset_layer,
        "epsilon": epsilon,
        "delta_entropy": delta_entropy,
    }
    write_json(os.path.join(out_dir, "layers.json"), doc)
    if args.csv:
        _write_csv(os.path.join(out_dir, "layers.csv"),
                   ["layer", "entropy_without_layer", "delta"],
                   [(i, doc["layer_entropies"][i], doc["deltas"][i])
                    for i in range(len(doc["deltas"]))])
    return (f"key layer {cal.key_layer}, offset layer {cal.offset_layer}, "
            f"epsilon {epsilon:.4f} -> {out_dir}/layers.json")


def _cmd_filter(args, config: RunConfig, out_dir: str) -> str:
    model, vocab = load_host(config)
    cal = probe_calibration(model, vocab)
    records = _resolve_records(args, config)
    stop = max(cal.key_layer, cal.offset_layer)
    profiles = filter_stage(model, records, vocab, cal, config.lam,
                            dict.fromkeys(range(len(records)), stop))
    rows = []
    for record, profile in zip(records, profiles.values()):
        row = {"record_id": record.record_id, **profile.to_json()}
        row.pop("delta_a")
        rows.append(row)
    write_jsonl(os.path.join(out_dir, "filters.jsonl"), rows)
    return f"profiled {len(rows)} records at lambda {config.lam} -> {out_dir}/filters.jsonl"


def _cmd_train(args, config: RunConfig, out_dir: str) -> str:
    hyper = Hyperparams(mu=config.mu, nu=config.nu, seed=config.seed)
    overrides = {}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.lr is not None:
        overrides["lr"] = args.lr
    if overrides:
        hyper = dataclasses.replace(hyper, **overrides)
    bundle, examples = _training_setup(args, config)
    t0 = time.perf_counter()
    report = train(bundle.model, bundle.params, examples, hyper,
                   insertion_layer=bundle.calibration.offset_layer)
    wall = time.perf_counter() - t0
    means = report.epoch_mean_losses()
    ckpt = os.path.join(out_dir, "dssp_trained.bin")
    save_dssp_params(ckpt, bundle.params)
    write_json(os.path.join(out_dir, "train_report.json"), {
        "checkpoint": ckpt,
        "checkpoint_id": report.checkpoint_id,
        "epochs": report.epochs,
        "n_steps": len(report.steps),
        "epoch_mean_losses": means,
        "loss_drop": 1.0 - means[-1] / means[0] if means[0] else 0.0,
        "mu": hyper.mu, "nu": hyper.nu, "lr": hyper.lr, "seed": hyper.seed,
    })
    write_json(os.path.join(out_dir, "timings.json"), {"train_wall_time": wall})
    if args.csv:
        _write_csv(os.path.join(out_dir, "train_steps.csv"),
                   [f.name for f in dataclasses.fields(TrainStep)],
                   [dataclasses.astuple(s) for s in report.steps])
    return (f"trained {report.epochs} epochs, mean loss {means[0]:.3f} -> {means[-1]:.3f}, "
            f"checkpoint {report.checkpoint_id[:12]} -> {ckpt}")


def _cmd_eval(args, config: RunConfig, out_dir: str) -> str:
    records = load_records(args.records)
    report = evaluate(read_jsonl(args.traces, PipelineTrace), records)
    write_json(os.path.join(out_dir, "eval_report.json"), report)
    return (f"accuracy {report['answer_token_accuracy']:.3f} on {report['n_records']} "
            f"records -> {out_dir}/eval_report.json")


def _cmd_demo_decompose(args, config: RunConfig, out_dir: str) -> str:
    study = suppression_study(n_seeds=args.trials, d_model=args.d_model,
                              n_tokens=args.tokens, dims=tuple(args.dims),
                              noise_scale=args.noise_scale)
    write_json(os.path.join(out_dir, "decompose.json"), study)
    return (f"shared-direction suppression in {study['suppressed']}/{study['n_seeds']} "
            f"trials -> {out_dir}/decompose.json")


def _cmd_grid_search(args, config: RunConfig, out_dir: str) -> str:
    if args.records is not None or args.fixture is not None:
        base = Hyperparams(seed=config.seed, epochs=args.epochs)
        bundle, examples = _training_setup(args, config)

        def objective(mu: float, nu: float) -> float:
            report = train(bundle.model, bundle.params.copy(), examples,
                           dataclasses.replace(base, mu=mu, nu=nu),
                           insertion_layer=bundle.calibration.offset_layer)
            return report.epoch_mean_losses()[-1]

        objective_name = f"final mean loss after {args.epochs} epoch(s)"
    else:
        def objective(mu: float, nu: float) -> float:
            return (mu - args.center_mu) ** 2 + (nu - args.center_nu) ** 2

        objective_name = (f"quadratic demo centred on "
                          f"({args.center_mu}, {args.center_nu})")
    result = grid_search(objective)
    table = [dataclasses.asdict(p) for p in result.table]
    write_json(os.path.join(out_dir, "grid.json"), {
        "objective": objective_name,
        "mu_star": result.mu_star,
        "nu_star": result.nu_star,
        "best_value": result.best_value,
        "n_points": len(table),
        "table": table,
    })
    if args.csv:
        _write_csv(os.path.join(out_dir, "grid.csv"),
                   [f.name for f in dataclasses.fields(GridPoint)],
                   [dataclasses.astuple(p) for p in result.table])
    return (f"best (mu, nu) = ({result.mu_star:.2f}, {result.nu_star:.2f}) "
            f"with {objective_name} {result.best_value:.6g} -> {out_dir}/grid.json")


def _cmd_pipeline(args, config: RunConfig, out_dir: str) -> str:
    bundle = load_bundle(config)
    records = list(_resolve_records(args, config))
    if not records:   # ``evaluate`` refuses it: refuse before writing any trace
        raise ContractViolationError("nothing to evaluate")
    traces = run_records(records, config, bundle)
    rows = []
    for trace in traces:
        row = trace.to_json()
        row.pop("timings")  # wall-clock lives in timings.json, outputs stay reproducible
        rows.append(row)
    write_jsonl(os.path.join(out_dir, "traces.jsonl"), rows)
    report = evaluate(traces, records)
    times = report.pop("mean_stage_times")
    write_json(os.path.join(out_dir, "report.json"), report)
    write_json(os.path.join(out_dir, "timings.json"), {"mean_stage_times": times})
    return (f"accuracy {report['answer_token_accuracy']:.3f}, detection rate "
            f"{report['detection_rate']:.3f} on {report['n_records']} records "
            f"-> {out_dir}/traces.jsonl")


_COMMANDS = {
    "detect": _cmd_detect,
    "analyze-layers": _cmd_analyze_layers,
    "filter": _cmd_filter,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "demo-decompose": _cmd_demo_decompose,
    "grid-search": _cmd_grid_search,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        out_dir = _echo(config, args, argv)
        summary = _COMMANDS[args.command](args, config, out_dir)
    except (ContractViolationError, TrainingDivergedError, OSError) as exc:
        # one line, whatever the message quotes: control characters are escaped
        message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
        print(f"error:{type(exc).__name__}: {message}", file=sys.stderr)
        return 2
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
