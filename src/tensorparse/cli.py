"""Command-line interface: train, eval, predict, inspect, cv, gen-toy."""

from __future__ import annotations

import argparse
import os
import sys

from . import TensorparseError, evaluator, kgraph, learner, logform, toy
from .dataset import load_dataset
from .features import tokenize


def _add_kg_flags(p):
    p.add_argument("--kg", required=True, help="triples TSV file")
    p.add_argument("--catalog", required=True, help="entity/relation catalog TSV file")


def _add_train_flags(p):
    p.add_argument("--max-candidates", type=int, default=200)  # eval/predict read the model's
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=42)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorparse",
        description="Question answering over a triple store via "
        "template candidates ranked with unigram pair features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from question/answer pairs")
    _add_kg_flags(p)
    p.add_argument("--data", required=True, help="JSONL dataset file")
    p.add_argument("--out", required=True, help="output model file")
    _add_train_flags(p)

    p = sub.add_parser("eval", help="evaluate a model file on a dataset")
    _add_kg_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--report", help="write the per-query report here")

    p = sub.add_parser("predict", help="answer a single question")
    _add_kg_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--question", required=True)

    p = sub.add_parser("inspect", help="print the top-weighted features")
    p.add_argument("--model", required=True)
    p.add_argument("--top-k", type=int, default=10)

    p = sub.add_parser("cv", help="k-fold cross-validation")
    _add_kg_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--order", choices=["random", "alphabetical"], default="random")
    _add_train_flags(p)

    p = sub.add_parser("gen-toy", help="generate the bundled toy corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _utf8_lines(fh, path):
    """The lines of a text file; bytes that are not UTF-8 are an error naming it."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise TensorparseError(f"{kgraph._shown(path)}: not UTF-8 ({exc.reason})") from None


def _load_graph(args):
    with open(args.kg, encoding="utf-8") as triples, open(
        args.catalog, encoding="utf-8"
    ) as catalog:
        return kgraph.load_graph(_utf8_lines(triples, args.kg),
                                 _utf8_lines(catalog, args.catalog))


def _load_data(path):
    with open(path, encoding="utf-8") as fh:
        return load_dataset(_utf8_lines(fh, path))


def _gen_cfg(args) -> logform.GenConfig:
    return logform.GenConfig(max_candidates=args.max_candidates)


def _train_cfg(args) -> learner.TrainConfig:
    return learner.TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        l2=args.l2,
        seed=args.seed,
    )


def _cmd_train(args) -> int:
    kg = _load_graph(args)
    data = _load_data(args.data)
    result = learner.train(data, kg, _gen_cfg(args), _train_cfg(args))
    learner.save_model(result.model, args.out)
    if result.all_negative:
        print("warning: no query produced a positive candidate; wrote zero model",
              file=sys.stderr)
        print("final training loss = n/a")
    else:
        print(f"final training loss = {result.epoch_losses[-1]:.6f}")
    return 0


def _cmd_eval(args) -> int:
    kg = _load_graph(args)
    data = _load_data(args.data)
    model = learner.load_model(args.model)
    report = evaluator.evaluate(model, data, kg, model.gen_cfg)
    if args.report:
        evaluator.write_report(report, args.report)
    print(f"averageF1={report.average_f1:.4f} oracleF1={report.oracle_f1:.4f}")
    return 0


def _cmd_predict(args) -> int:
    kg = _load_graph(args)
    model = learner.load_model(args.model)
    tokens = tokenize(args.question)
    if not tokens:
        raise TensorparseError("question has no tokens")
    candidates = logform.generate_candidates(tokens, kg, model.gen_cfg)
    best = learner.predict(model, tokens, candidates)
    if best is None:
        raise TensorparseError("no candidate logical forms for this question")
    print(logform.serialize(best.logical_form))
    print(" ".join(best.utterance_tokens))
    for name in sorted(kg.entity(eid).name for eid in best.denotation):
        print(name)
    return 0


def _cmd_inspect(args) -> int:
    model = learner.load_model(args.model)
    for key, weight in learner.top_features(model, args.top_k):
        print(f"{key}\t{weight:.6f}")
    return 0


def _cmd_cv(args) -> int:
    kg = _load_graph(args)
    data = _load_data(args.data)
    spec = evaluator.SplitSpec(mode=args.order, folds=args.folds, seed=args.seed)
    reports, summary = evaluator.cross_validate(
        data, kg, _gen_cfg(args), _train_cfg(args), spec
    )
    for i, report in enumerate(reports):
        print(f"fold {i}: averageF1={report.average_f1:.4f}"
              f" oracleF1={report.oracle_f1:.4f} n={len(report.per_query)}")
    print(f"mean averageF1={summary.mean_average_f1:.4f}"
          f" stdev={summary.stdev_average_f1:.4f}"
          f" mean oracleF1={summary.mean_oracle_f1:.4f}")
    return 0


def _cmd_gen_toy(args) -> int:
    paths = toy.gen_toy(args.out, seed=args.seed)
    for name in ("catalog", "triples", "dataset"):
        print(paths[name])
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "inspect": _cmd_inspect,
    "cv": _cmd_cv,
    "gen-toy": _cmd_gen_toy,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except BrokenPipeError:
        # The reader of stdout has gone. Python flushes stdout again at exit,
        # so point it at devnull for that flush to write nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (TensorparseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
