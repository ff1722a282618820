"""Command-line surface: trace, pretrain, train, evaluate, predict, ablate.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 training
divergence. The ``SEMDR_SEED`` environment variable overrides the config
seed; an explicit ``--seed`` flag outranks both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_run_config
from .corpus import Task, load_corpus, filter_scenario, split
from .clues import load_lexicon
from .encoder import label_key, load_embedding_table, write_embedding_table
from .errors import ConfigError, DataError, DivergenceError, LexjudgeError
from .metrics import MetricsReport, ablation_table
from .rng import derive
from .trainer import (
    FittedModel,
    PipelineResult,
    case_clues,
    evaluate_model,
    predict_records,
    run_pipeline,
)
from .validation import write_output

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

ABLATION_COMBOS: dict[str, tuple[bool, bool, bool]] = {
    # name -> (use_clue_tracing, use_contrastive, use_graph)
    "full": (True, True, True),
    "no_clue": (False, True, True),
    "no_contrastive": (True, False, True),
    "no_graph": (True, True, False),
    "clue_only": (True, False, False),
    "contrastive_only": (False, True, False),
    "graph_only": (False, False, True),
    "none": (False, False, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexjudge",
        description="Legal judgment prediction pipeline: clue tracing, "
        "contrastive case representations, and graph-enhanced labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="extract clue sets to JSONL")
    trace.add_argument("--config", required=True)
    trace.add_argument("--in", dest="input", help="corpus file (overrides config)")
    trace.add_argument("--out", help="output file (default <output_dir>/clues.jsonl)")

    pretrain = sub.add_parser("pretrain", help="contrastive encoder pre-training only")
    pretrain.add_argument("--config", required=True)
    pretrain.add_argument("--seed", type=int)
    pretrain.add_argument("--out", help="output directory (overrides config)")

    train = sub.add_parser("train", help="run the full training pipeline")
    train.add_argument("--config", required=True)
    train.add_argument("--seed", type=int)
    train.add_argument("--out", help="output directory (overrides config)")

    evaluate = sub.add_parser("evaluate", help="metrics of a checkpoint on one split")
    evaluate.add_argument("--config", required=True)
    evaluate.add_argument("--checkpoint", help="checkpoint path (overrides config)")
    evaluate.add_argument("--split", choices=("train", "val", "test"), default="test")
    evaluate.add_argument("--out", help="output directory (overrides config)")

    predict = sub.add_parser("predict", help="write predictions for a corpus file")
    predict.add_argument("--checkpoint", required=True)
    predict.add_argument("--in", dest="input", required=True)
    predict.add_argument("--out", required=True)

    ablate = sub.add_parser("ablate", help="run the toggle grid and emit the table")
    ablate.add_argument("--config", required=True)
    ablate.add_argument("--seed", type=int)
    ablate.add_argument(
        "--grid",
        default="all",
        help="'all' or comma-separated combination names "
        f"({', '.join(ABLATION_COMBOS)}); 'full' is always included",
    )
    ablate.add_argument("--out", help="output directory (overrides config)")
    return parser


def _out_dir(cfg: RunConfig, override: str | None) -> str:
    path = override or cfg.path("output_dir")
    if not path:
        raise ConfigError("an output directory is required (paths.output_dir or --out)")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _load_inputs(cfg: RunConfig, corpus_override: str | None = None):
    corpus = load_corpus(corpus_override or cfg.path("corpus", required=True))
    scenario = cfg.scenario_spec(corpus)
    if scenario is not None:
        corpus = filter_scenario(corpus, scenario, seed=derive(cfg.seed, "scenario"))
    return corpus


def _write_tsv(path: str, header: list[str], rows: list[tuple]) -> None:
    # floats go through the shortest round-trip repr (numpy scalars coerced)
    lines = ["\t".join(header)]
    lines += [
        "\t".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
        for row in rows
    ]
    write_output(path, "\n".join(lines) + "\n")


def _write_json(path: str, doc) -> None:
    write_output(path, json.dumps(doc, ensure_ascii=False, indent=2) + "\n")


def _write_jsonl(path: str, records) -> None:
    write_output(path, "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))


def _write_metrics(out_dir: str, name: str, reports: dict[Task, MetricsReport]) -> None:
    doc = {task.value: reports[task].as_dict() for task in reports}
    _write_json(os.path.join(out_dir, f"{name}.json"), doc)
    rows = [
        (task.value, r.acc, r.mp, r.mr, r.f1) for task, r in reports.items()
    ]
    _write_tsv(
        os.path.join(out_dir, f"{name}.tsv"), ["task", "acc", "mp", "mr", "f1"], rows
    )


def _print_metrics(reports: dict[Task, MetricsReport]) -> None:
    for task, r in reports.items():
        print(
            f"{task.value}: acc={r.acc:.4f} mp={r.mp:.4f} mr={r.mr:.4f} f1={r.f1:.4f}"
        )


def _pipeline_kwargs(cfg: RunConfig) -> dict:
    kwargs: dict = {
        "threshold": cfg.threshold,
        "split_spec": cfg.split_spec(),
        "contrastive_cfg": cfg.contrastive_config(),
        "train_cfg": cfg.train_config(),
    }
    if cfg.backend == "hashed":
        kwargs["lexicon"], kwargs["anchors"] = load_lexicon(cfg.path("lexicon", required=True))
        kwargs["encoder_params"] = cfg.encoder_params()
    else:
        kwargs["table"] = load_embedding_table(cfg.path("embeddings", required=True))
    return kwargs


def _write_embeddings(path: str, result: PipelineResult) -> None:
    model = result.model
    rows = list(zip(result.train.ids(), result.fact_vectors))
    rows += [
        (label_key(task, label_id), vector)
        for task in model.tasks
        for label_id, vector in enumerate(model.label_matrices[task])
    ]
    write_embedding_table(path, model.dim, rows)


def cmd_trace(args) -> int:
    cfg = load_run_config(args.config)
    lexicon, anchors = load_lexicon(cfg.path("lexicon", required=True))
    corpus = _load_inputs(cfg, args.input)
    out_path = args.out
    if not out_path:
        out_path = os.path.join(_out_dir(cfg, None), "clues.jsonl")
    clue_sets = [case_clues(case, lexicon, anchors, cfg.threshold, True) for case in corpus]
    _write_jsonl(out_path, (
        {
            "id": case.id,
            "motivation": clue.motivation,
            "action": clue.action,
            "harm": clue.harm,
            "provenance": {k: v.value for k, v in clue.provenance.items()},
        }
        for case, clue in zip(corpus, clue_sets)
    ))
    print(f"traced {len(corpus)} cases -> {out_path}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = load_run_config(args.config, seed_flag=args.seed)
    if cfg.backend != "hashed":
        raise ConfigError("pretrain requires the hashed encoder backend")
    out_dir = _out_dir(cfg, args.out)
    corpus = _load_inputs(cfg)
    kwargs = _pipeline_kwargs(cfg)
    # ``train``'s stages 1 and 2 on its training split; the encoder stage 3
    # would start from is kept, the untrained label matrices dropped.
    kwargs["train_cfg"] = replace(kwargs["train_cfg"], epochs=0)
    result = run_pipeline(corpus, **kwargs)
    rows = [(epoch, value) for stage, epoch, value in result.loss_log if stage == "contrastive"]
    checkpoint_path = os.path.join(out_dir, "checkpoint.json")
    save_checkpoint(checkpoint_path, replace(result.model, label_matrices={}))
    _write_tsv(os.path.join(out_dir, "contrastive_loss.tsv"), ["epoch", "mean_loss"], rows)
    if rows:
        print(f"contrastive: {len(rows)} epochs, first {rows[0][1]:.5f} last {rows[-1][1]:.5f}")
    print(f"checkpoint -> {checkpoint_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, seed_flag=args.seed)
    out_dir = _out_dir(cfg, args.out)
    corpus = _load_inputs(cfg)
    result = run_pipeline(corpus, **_pipeline_kwargs(cfg))
    checkpoint_path = cfg.path("checkpoint") or os.path.join(out_dir, "checkpoint.json")
    save_checkpoint(checkpoint_path, result.model, result.optimizer_state)
    _write_tsv(
        os.path.join(out_dir, "loss_log.tsv"),
        ["stage", "epoch", "loss"],
        result.loss_log,
    )
    if len(result.validation):
        reports = evaluate_model(result.model, result.validation)
        _write_metrics(out_dir, "metrics_val", reports)
        _print_metrics(reports)
    _write_tsv(
        os.path.join(out_dir, "attention.tsv"),
        ["src_node", "dst_node", "head", "layer", "alpha"],
        result.attention,
    )
    _write_embeddings(os.path.join(out_dir, "embeddings.tsv"), result)
    print(f"checkpoint -> {checkpoint_path}")
    return EXIT_OK


def _split_by_name(corpus, split_spec, name: str):
    train_part, val_part, test_part = split(corpus, split_spec)
    return {"train": train_part, "val": val_part, "test": test_part}[name]


def _load_trained(path: str) -> FittedModel:
    """The model of a trained checkpoint: a missing file is a config error,
    a checkpoint without label matrices (a pre-trained encoder) a data error."""
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint does not exist: {path}")
    model, _ = load_checkpoint(path)
    if not model.label_matrices:
        raise DataError(f"checkpoint {path} has no trained label representations")
    return model


def cmd_evaluate(args) -> int:
    cfg = load_run_config(args.config)
    checkpoint_path = args.checkpoint or cfg.path("checkpoint")
    if not checkpoint_path:
        raise ConfigError("evaluate needs --checkpoint or paths.checkpoint")
    model = _load_trained(checkpoint_path)
    corpus = _load_inputs(cfg)
    part = _split_by_name(corpus, cfg.split_spec(), args.split)
    if len(part) == 0:
        raise DataError(f"{args.split} split is empty")
    reports = evaluate_model(model, part)
    out_dir = _out_dir(cfg, args.out)
    _write_metrics(out_dir, f"metrics_{args.split}", reports)
    _print_metrics(reports)
    return EXIT_OK


def cmd_predict(args) -> int:
    model = _load_trained(args.checkpoint)
    corpus = load_corpus(args.input)
    rows = predict_records(model, corpus)
    _write_jsonl(args.out, rows)
    print(f"wrote {len(rows)} predictions -> {args.out}")
    return EXIT_OK


def _parse_grid(grid: str) -> list[str]:
    if grid == "all":
        return list(ABLATION_COMBOS)
    names = list(dict.fromkeys(name.strip() for name in grid.split(",") if name.strip()))
    unknown = [n for n in names if n not in ABLATION_COMBOS]
    if unknown:
        raise ConfigError(
            f"unknown combination(s) {unknown}; valid names: {', '.join(ABLATION_COMBOS)}"
        )
    if "full" not in names:
        names.insert(0, "full")
    if len(names) < 2:
        raise ConfigError("--grid must name at least one combination besides full")
    return names


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config, seed_flag=args.seed)
    out_dir = _out_dir(cfg, args.out)
    names = _parse_grid(args.grid)
    corpus = _load_inputs(cfg)
    kwargs = _pipeline_kwargs(cfg)
    if len(_split_by_name(corpus, kwargs["split_spec"], "test")) == 0:
        raise DataError("ablation requires a non-empty test split")
    reports: dict[str, dict[Task, MetricsReport]] = {}
    for name in names:
        clue, contrastive, graph = ABLATION_COMBOS[name]
        train_cfg = replace(
            kwargs["train_cfg"],
            use_clue_tracing=clue, use_contrastive=contrastive, use_graph=graph,
        )
        result = run_pipeline(corpus, **{**kwargs, "train_cfg": train_cfg})
        reports[name] = evaluate_model(result.model, result.test)
        summary = " ".join(f"{task.value}_f1={r.f1:.4f}" for task, r in reports[name].items())
        print(f"{name}: {summary}")
    table = ablation_table(reports, baseline="full")
    table_path = os.path.join(out_dir, "ablation.tsv")
    write_output(table_path, table)
    _write_json(os.path.join(out_dir, "ablation.json"), {
        name: {task.value: r.as_dict() for task, r in per_task.items()}
        for name, per_task in reports.items()
    })
    print(f"ablation table -> {table_path}")
    return EXIT_OK


COMMANDS = {
    "trace": cmd_trace,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LexjudgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
