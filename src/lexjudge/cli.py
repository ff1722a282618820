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

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_run_config
from .corpus import Corpus, Task, load_corpus, filter_scenario, split
from .clues import load_lexicon
from .contrastive import train_contrastive
from .encoder import HashedEncoderParams, label_key, load_embedding_table
from .errors import ConfigError, DataError, DivergenceError, LexjudgeError
from .metrics import MetricsReport, ablation_table
from .rng import derive
from .trainer import (
    FittedModel,
    evaluate_model,
    predict_records,
    prepare_clues,
    run_pipeline,
)

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
    path = override or cfg.paths.get("output_dir")
    if not path:
        raise ConfigError("an output directory is required (paths.output_dir or --out)")
    os.makedirs(path, exist_ok=True)
    return path


def _load_inputs(cfg: RunConfig, corpus_override: str | None = None):
    corpus_path = corpus_override or cfg.path("corpus", required=True)
    if corpus_override and not os.path.exists(corpus_override):
        raise DataError(f"corpus file does not exist: {corpus_override}")
    corpus = load_corpus(corpus_path)
    scenario = cfg.scenario_spec(corpus)
    if scenario is not None:
        corpus = filter_scenario(corpus, scenario, seed=derive(cfg.seed, "scenario"))
    return corpus


def _load_lexicon(cfg: RunConfig):
    lexicon_path = cfg.path("lexicon", required=True)
    return load_lexicon(lexicon_path)


def _write_tsv(path: str, header: list[str], rows: list[tuple]) -> None:
    # floats go through the shortest round-trip repr (numpy scalars coerced)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write(
                "\t".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
                + "\n"
            )


def _write_metrics(out_dir: str, name: str, reports: dict[Task, MetricsReport]) -> None:
    doc = {task.value: reports[task].as_dict() for task in reports}
    with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, ensure_ascii=False, indent=2)
        fh.write("\n")
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


def _pipeline_kwargs(cfg: RunConfig, train_overrides: dict | None = None) -> dict:
    kwargs: dict = {
        "threshold": cfg.threshold,
        "split_spec": cfg.split_spec(),
        "contrastive_cfg": cfg.contrastive_config(),
        "train_cfg": cfg.train_config(train_overrides),
    }
    if cfg.backend == "hashed":
        lexicon, anchors = _load_lexicon(cfg)
        kwargs["lexicon"] = lexicon
        kwargs["anchors"] = anchors
        kwargs["encoder_params"] = HashedEncoderParams.initialize(
            seed=derive(cfg.seed, "encoder"), **cfg.encoder_args()
        )
    else:
        embeddings_path = cfg.path("embeddings", required=True)
        kwargs["table"] = load_embedding_table(embeddings_path)
        kwargs["embeddings_path"] = embeddings_path
    return kwargs


def _write_embeddings(path: str, model: FittedModel, train_corpus: Corpus) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#dim {model.dim}\n")
        backend = model.backend()
        for case in train_corpus:
            vec = backend.fact_vector(case)
            fh.write(case.id + "\t" + " ".join(repr(float(v)) for v in vec) + "\n")
        for task in model.tasks:
            matrix = model.label_matrices[task]
            for label_id in range(matrix.shape[0]):
                fh.write(
                    label_key(task, label_id)
                    + "\t"
                    + " ".join(repr(float(v)) for v in matrix[label_id])
                    + "\n"
                )


def cmd_trace(args) -> int:
    cfg = load_run_config(args.config)
    lexicon, anchors = _load_lexicon(cfg)
    corpus = _load_inputs(cfg, args.input)
    out_path = args.out
    if not out_path:
        out_path = os.path.join(_out_dir(cfg, None), "clues.jsonl")
    prepare_clues(corpus.cases, lexicon, anchors, cfg.threshold, use_clue_tracing=True)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        for case in corpus:
            clue = case.clues
            fh.write(
                json.dumps(
                    {
                        "id": case.id,
                        "motivation": clue.motivation,
                        "action": clue.action,
                        "harm": clue.harm,
                        "provenance": {k: v.value for k, v in clue.provenance.items()},
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
    print(f"traced {len(corpus)} cases -> {out_path}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = load_run_config(args.config, seed_flag=args.seed)
    if cfg.backend != "hashed":
        raise ConfigError("pretrain requires the hashed encoder backend")
    out_dir = _out_dir(cfg, args.out)
    kwargs = _pipeline_kwargs(cfg)
    corpus = _load_inputs(cfg)
    train_cfg = kwargs["train_cfg"]
    prepare_clues(
        corpus.cases, kwargs["lexicon"], kwargs["anchors"], cfg.threshold,
        train_cfg.use_clue_tracing,
    )
    train_part, _, _ = split(corpus, kwargs["split_spec"])
    params, history = train_contrastive(
        kwargs["encoder_params"], train_part, kwargs["contrastive_cfg"]
    )
    model = FittedModel.trained(
        train_cfg,
        corpus.vocabs,
        encoder_params=params,
        lexicon=kwargs["lexicon"],
        anchors=kwargs["anchors"],
        threshold=cfg.threshold,
    )
    save_checkpoint(os.path.join(out_dir, "checkpoint.json"), model)
    _write_tsv(
        os.path.join(out_dir, "contrastive_loss.tsv"),
        ["epoch", "mean_loss"],
        [(epoch, value) for epoch, value in enumerate(history)],
    )
    if history:
        print(f"contrastive: {len(history)} epochs, first {history[0]:.5f} last {history[-1]:.5f}")
    print(f"checkpoint -> {os.path.join(out_dir, 'checkpoint.json')}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, seed_flag=args.seed)
    out_dir = _out_dir(cfg, args.out)
    corpus = _load_inputs(cfg)
    result = run_pipeline(corpus, **_pipeline_kwargs(cfg))
    checkpoint_path = cfg.paths.get("checkpoint") or os.path.join(out_dir, "checkpoint.json")
    save_checkpoint(checkpoint_path, result.model, result.optimizer_state)
    _write_tsv(
        os.path.join(out_dir, "loss_log.tsv"),
        ["stage", "epoch", "loss"],
        result.loss_log,
    )
    if result.metrics:
        _write_metrics(out_dir, "metrics_val", result.metrics)
        _print_metrics(result.metrics)
    _write_tsv(
        os.path.join(out_dir, "attention.tsv"),
        ["src_node", "dst_node", "head", "layer", "alpha"],
        result.attention,
    )
    _write_embeddings(os.path.join(out_dir, "embeddings.tsv"), result.model, result.train)
    print(f"checkpoint -> {checkpoint_path}")
    return EXIT_OK


def _split_by_name(corpus, split_spec, name: str):
    train_part, val_part, test_part = split(corpus, split_spec)
    return {"train": train_part, "val": val_part, "test": test_part}[name]


def cmd_evaluate(args) -> int:
    cfg = load_run_config(args.config)
    checkpoint_path = args.checkpoint or cfg.paths.get("checkpoint")
    if not checkpoint_path:
        raise ConfigError("evaluate needs --checkpoint or paths.checkpoint")
    if not os.path.exists(checkpoint_path):
        raise ConfigError(f"checkpoint does not exist: {checkpoint_path}")
    model, _ = load_checkpoint(checkpoint_path, load_table=True)
    if not model.label_matrices:
        raise DataError("checkpoint has no trained label representations")
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
    if not os.path.exists(args.checkpoint):
        raise ConfigError(f"checkpoint does not exist: {args.checkpoint}")
    model, _ = load_checkpoint(args.checkpoint, load_table=True)
    if not model.label_matrices:
        raise DataError("checkpoint has no trained label representations")
    corpus = load_corpus(args.input)
    rows = predict_records(model, corpus)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    print(f"wrote {len(rows)} predictions -> {args.out}")
    return EXIT_OK


def _parse_grid(grid: str) -> list[str]:
    if grid == "all":
        return list(ABLATION_COMBOS)
    names = [name.strip() for name in grid.split(",") if name.strip()]
    if not names:
        raise ConfigError("--grid must name at least one combination")
    unknown = [n for n in names if n not in ABLATION_COMBOS]
    if unknown:
        raise ConfigError(
            f"unknown combination(s) {unknown}; valid names: {', '.join(ABLATION_COMBOS)}"
        )
    if "full" not in names:
        names.insert(0, "full")
    return names


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config, seed_flag=args.seed)
    out_dir = _out_dir(cfg, args.out)
    names = _parse_grid(args.grid)
    corpus = _load_inputs(cfg)
    reports: dict[str, dict[Task, MetricsReport]] = {}
    for name in names:
        clue, contrastive, graph = ABLATION_COMBOS[name]
        overrides = {
            "use_clue_tracing": clue,
            "use_contrastive": contrastive,
            "use_graph": graph,
        }
        result = run_pipeline(corpus, **_pipeline_kwargs(cfg, overrides))
        test_reports = (
            evaluate_model(result.model, result.test) if len(result.test) else {}
        )
        if not test_reports:
            raise DataError("ablation requires a non-empty test split")
        reports[name] = test_reports
        summary = " ".join(
            f"{task.value}_f1={r.f1:.4f}" for task, r in test_reports.items()
        )
        print(f"{name}: {summary}")
    table = ablation_table(reports, baseline="full")
    table_path = os.path.join(out_dir, "ablation.tsv")
    with open(table_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table)
    with open(os.path.join(out_dir, "ablation.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            {
                name: {task.value: r.as_dict() for task, r in per_task.items()}
                for name, per_task in reports.items()
            },
            fh,
            ensure_ascii=False,
            indent=2,
        )
        fh.write("\n")
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
