"""Command-line front end: toy / augment / train / gridsearch / evaluate / report / pipeline.

Subcommands compose through files only.  Every record-style artifact
(stats, history, reports) carries the resolved configuration, and all
randomness flows from one root seed through named stream derivation,
so a rerun with the same configuration reproduces every output.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, augment as aug, corpus, evaluation, models, toy
from .config import ConfigError, RunConfig, resolve_training
from .seeding import derive_seed
from .train import DEFAULT_STAGE2_GRID, grid_search, train_model

CORPUS_FORMAT = 1
LABEL_FORMAT = 1
REPORT_FORMAT = 1


class CliError(RuntimeError):
    pass


def _read_text(path, flag):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError("cannot read %s file %r: %s" % (flag, path, exc.strerror)) from exc


def _write_text(path, text):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_dialogs(path, flag):
    return corpus.parse_dialogs(_read_text(path, flag))


def _load_lexicon(path, flag):
    return corpus.Lexicon.from_lines(_read_text(path, flag).split("\n"))


def _write_toy_files(out, domain, foreign):
    os.makedirs(out, exist_ok=True)
    for name, dialogs in (("train", domain.train), ("dev", domain.dev),
                          ("test", domain.test), ("ood_pool", foreign)):
        corpus.write_dialog_file(os.path.join(out, name + ".txt"), dialogs)
    domain.lexicon.to_file(os.path.join(out, "lexicon.txt"))
    _write_text(os.path.join(out, "segment_pool.txt"), toy.segment_pool_text())


def cmd_toy(args):
    domain = toy.generate_toy_domain(args.seed, args.n_dialogs, args.n_actions)
    foreign = toy.generate_foreign_dialogs(derive_seed(args.seed, "foreign"),
                                           args.foreign_per_domain)
    out = args.out_dir
    _write_toy_files(out, domain, foreign)
    print("toy domain written to %s (train=%d dev=%d test=%d, pool dialogs=%d)"
          % (out, len(domain.train), len(domain.dev), len(domain.test), len(foreign)))
    return 0


def cmd_augment(args):
    dialogs = _load_dialogs(args.input, "--input")
    pools = [
        aug.load_ood_pool(_load_dialogs(path, "--ood-pool"), source=path)
        for path in args.ood_pool
    ]
    pool = aug.merge_ood_pools(pools)
    segment_pool = aug.load_segment_pool(_read_text(args.segment_pool, "--segment-pool"))
    config = aug.AugmentationConfig(
        p_ood_start=args.p_start,
        p_ood_cont=args.p_cont,
        seed=args.seed,
        independent_segment_prob=args.independent_segment_prob,
    )
    augmented, stats = aug.augment_corpus(dialogs, config, pool, segment_pool,
                                          fallback_utterance=args.fallback)
    _write_text(args.output, corpus.write_dialogs(augmented))
    aug.write_labels(args.output + ".labels" if args.labels_out is None else args.labels_out,
                     augmented)
    if args.stats_out:
        lines = stats.to_lines()
        lines.append("config.p_ood_start = %s" % args.p_start)
        lines.append("config.p_ood_cont = %s" % args.p_cont)
        lines.append("config.independent_segment_prob = %s" % args.independent_segment_prob)
        lines.append("config.seed = %d" % args.seed)
        _write_text(args.stats_out, "\n".join(lines) + "\n")
    print("augmented %d dialogs: %s" % (stats.dialogs,
          ", ".join(stats.to_lines()[2:6]).replace(" = ", "=")))
    return 0


# flag -> configuration key; training flags default to None so the
# precedence is flag > --config file > built-in default
_TRAINING_FLAGS = {
    "variant": "model.variant",
    "fallback": "corpus.fallback_template",
    "seed": "train.seed",
    "learning_rate": "train.learning_rate",
    "patience": "train.patience",
    "word_dropout": "train.word_dropout",
    "max_epochs": "train.max_epochs",
    "td_ratio": "turn_dropout.ratio",
    "embedding_size": "model.embedding_size",
    "latent_size": "model.latent_size",
    "embeddings": "model.embedding_file",
}


def _training_setup(args):
    """Resolved configuration and featurized train/dev sets for train/gridsearch."""
    config = RunConfig.load(args.config) if args.config else RunConfig()
    overrides = {key: getattr(args, flag, None) for flag, key in _TRAINING_FLAGS.items()}
    if args.plain_dev_selection:
        overrides["train.dev_turn_dropout"] = False
    config = config.with_overrides(overrides)
    model_config, train_config = resolve_training(config)

    train_dialogs = _load_dialogs(args.train, "--train")
    dev_dialogs = _load_dialogs(args.dev, "--dev")
    data = corpus.prepare(
        _load_lexicon(args.lexicon, "--lexicon"),
        [train_dialogs, dev_dialogs]
        + [_load_dialogs(path, "--actions-corpus") for path in args.actions_corpus],
        [_load_dialogs(path, "--vocab-corpus") for path in args.vocab_corpus],
        fallback=config.get("corpus.fallback_template"),
    )
    return (config, data, model_config, train_config,
            data.featurize(train_dialogs), data.featurize(dev_dialogs))


def _embedding_table(config, vocab):
    path = config.get("model.embedding_file")
    if not path:
        return None
    return corpus.load_embedding_table(path, vocab, seed=config.seed_for("train"))


def cmd_train(args):
    config, data, model_config, train_config, train_feats, dev_feats = _training_setup(args)
    model, history = train_model(
        model_config, train_config, train_feats, dev_feats, data.vocab, data.action_set,
        data.n_context, embedding_table=_embedding_table(config, data.vocab),
    )
    extra = {
        "train.seed": str(train_config.seed),
        "train.turn_dropout_ratio": str(train_config.turn_dropout_ratio),
        "train.word_dropout": str(train_config.word_dropout),
        "train.learning_rate": str(train_config.learning_rate),
    }
    models.save_checkpoint(args.out_checkpoint, model, data.lexicon, extra=extra)
    if args.history_out:
        lines = history.to_lines()
        lines.extend("# config.%s = %s" % (k, v) for k, v in sorted(extra.items()))
        _write_text(args.history_out, "\n".join(lines) + "\n")
    print("trained %s: best dev acc %.4f at epoch %d (%d epochs, %.1fs)"
          % (model_config.variant, history.best_dev_acc, history.best_epoch,
             len(history.epochs), history.wall_time_s))
    return 0


def _parse_stage1(text):
    cells = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" in item:
            emb, latent = item.split(":", 1)
            cells.append((int(emb), int(latent)))
        else:
            cells.append((int(item), None))
    if not cells:
        raise CliError("--stage1-grid is empty")
    return cells


def cmd_gridsearch(args):
    _, data, model_config, base_train, train_feats, dev_feats = _training_setup(args)
    stage1 = _parse_stage1(args.stage1_grid)
    stage2 = [float(x) for x in args.stage2_grid.split(",") if x.strip()]
    result = grid_search(
        model_config.variant, stage1, stage2, train_feats, dev_feats, data.vocab,
        data.action_set, n_context=data.n_context, base_model_config=model_config,
        base_train_config=base_train, jobs=args.jobs,
    )
    lines = result.to_lines()
    lines.append("# config.seed = %d" % base_train.seed)
    _write_text(args.results_out, "\n".join(lines) + "\n")
    print("grid search done: embedding=%d latent=%s td_ratio=%.2f"
          % (result.best_embedding_size, result.best_latent_size,
             result.best_turn_dropout_ratio))
    return 0


def _evaluate_to_record(model, data, dialogs, prefix):
    row = evaluation.evaluate_model(model, data.featurize(dialogs), data.vocab, data.action_set)
    return row.to_kv(prefix + ".")


def cmd_evaluate(args):
    if args.test is None and args.plain_test is None:
        raise CliError("at least one of --test or --plain-test is required")
    loaded = models.load_checkpoint(args.checkpoint)
    model = models.model_from_checkpoint(loaded)
    data = corpus.Featurizer(loaded.lexicon, loaded.vocab, loaded.action_set)
    lines = ["model = %s" % args.model_name]
    lines.extend("config.checkpoint.%s = %s" % (k, v) for k, v in sorted(loaded.extra.items()))
    if args.test is not None:
        dialogs = _load_dialogs(args.test, "--test")
        if args.labels:
            labels = aug.parse_labels(_read_text(args.labels, "--labels"))
            dialogs = aug.apply_labels(dialogs, labels)
        lines.extend(_evaluate_to_record(model, data, dialogs, "augmented"))
    if args.plain_test is not None:
        dialogs = _load_dialogs(args.plain_test, "--plain-test")
        lines.extend(_evaluate_to_record(model, data, dialogs, "plain"))
    _write_text(args.report_out, "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_report(args):
    records = [evaluation.parse_report(_read_text(path, "report input")) for path in args.reports]
    table = evaluation.format_report_table(records)
    if args.out:
        _write_text(args.out, "\n".join(table) + "\n")
    if args.csv_out:
        _write_text(args.csv_out, "\n".join(evaluation.format_report_csv(records)) + "\n")
    print("\n".join(table))
    return 0


def run_pipeline(config, out_dir):
    """augment -> train -> evaluate -> report on one configuration."""
    stage = "setup"
    try:
        os.makedirs(out_dir, exist_ok=True)
        fallback = config.get("corpus.fallback_template")
        model_config, train_config = resolve_training(config)

        stage = "data"
        if config.get("data.train"):
            for key in ("data.dev", "data.test", "data.lexicon",
                        "data.ood_pool", "data.segment_pool"):
                if not config.get(key):
                    raise CliError("%s must be set when data.train is" % key)
            train_dialogs = _load_dialogs(config.get("data.train"), "data.train")
            dev_dialogs = _load_dialogs(config.get("data.dev"), "data.dev")
            test_dialogs = _load_dialogs(config.get("data.test"), "data.test")
            lexicon = _load_lexicon(config.get("data.lexicon"), "data.lexicon")
            foreign = []
            for path in config.get("data.ood_pool").split(","):
                foreign.extend(_load_dialogs(path.strip(), "data.ood_pool"))
            segment_text = _read_text(config.get("data.segment_pool"), "data.segment_pool")
        else:
            toy_seed = config.seed_for("toy")
            domain = toy.generate_toy_domain(toy_seed, config.get("toy.n_dialogs"),
                                             config.get("toy.n_actions"))
            foreign = toy.generate_foreign_dialogs(derive_seed(toy_seed, "foreign"))
            lexicon = domain.lexicon
            segment_text = toy.segment_pool_text()
            _write_toy_files(os.path.join(out_dir, "data"), domain, foreign)
            train_dialogs, dev_dialogs, test_dialogs = domain.train, domain.dev, domain.test

        stage = "augment"
        aug_config = aug.AugmentationConfig(
            p_ood_start=config.get("augment.p_ood_start"),
            p_ood_cont=config.get("augment.p_ood_cont"),
            independent_segment_prob=config.get("augment.independent_segment_prob"),
            seed=config.seed_for("augment"),
        )
        pool = aug.load_ood_pool(foreign, source="ood-pool")
        segment_pool = aug.load_segment_pool(segment_text)
        test_aug, stats = aug.augment_corpus(test_dialogs, aug_config, pool, segment_pool,
                                             fallback_utterance=fallback)
        corpus.write_dialog_file(os.path.join(out_dir, "test_ood.txt"), test_aug)
        aug.write_labels(os.path.join(out_dir, "test_ood.labels"), test_aug)
        stats_lines = stats.to_lines() + config.echo_lines()
        _write_text(os.path.join(out_dir, "augment_stats.txt"), "\n".join(stats_lines) + "\n")

        stage = "featurize"
        data = corpus.prepare(lexicon, [train_dialogs, dev_dialogs, test_dialogs],
                              [foreign, segment_pool.as_dialogs()], fallback=fallback)
        train_feats = data.featurize(train_dialogs)
        dev_feats = data.featurize(dev_dialogs)
        test_plain_feats = data.featurize(test_dialogs)
        test_aug_feats = data.featurize(test_aug)

        stage = "train"
        model, history = train_model(
            model_config, train_config, train_feats, dev_feats, data.vocab, data.action_set,
            data.n_context, embedding_table=_embedding_table(config, data.vocab),
        )
        models.save_checkpoint(os.path.join(out_dir, "model.ckpt"), model, lexicon)
        _write_text(os.path.join(out_dir, "history.txt"),
                    "\n".join(history.to_lines() + config.echo_lines("# config.")) + "\n")

        stage = "evaluate"
        model_name = ("TD-" if train_config.turn_dropout_ratio > 0 else "") + model_config.variant
        lines = ["model = %s" % model_name]
        row = evaluation.evaluate_model(model, test_aug_feats, data.vocab, data.action_set)
        lines.extend(row.to_kv("augmented."))
        if config.get("pipeline.eval_plain"):
            plain_row = evaluation.evaluate_model(model, test_plain_feats, data.vocab,
                                                  data.action_set)
            lines.extend(plain_row.to_kv("plain."))
        lines.extend(config.echo_lines())
        report_path = os.path.join(out_dir, "report.txt")
        _write_text(report_path, "\n".join(lines) + "\n")

        stage = "report"
        record = evaluation.parse_report("\n".join(lines))
        _write_text(os.path.join(out_dir, "results_table.txt"),
                    "\n".join(evaluation.format_report_table([record])) + "\n")
        _write_text(os.path.join(out_dir, "results_table.csv"),
                    "\n".join(evaluation.format_report_csv([record])) + "\n")
        _write_text(os.path.join(out_dir, "run_config.txt"),
                    "\n".join(config.echo_lines(prefix="")) + "\n")
    except (CliError, ConfigError, ValueError, OSError) as exc:
        raise CliError("stage %s: %s" % (stage, exc)) from exc
    return 0


def cmd_pipeline(args):
    config = RunConfig.load(args.config) if args.config else RunConfig()
    overrides = {
        "run.seed": args.seed,
        "pipeline.out_dir": args.out_dir,
        "model.variant": args.variant,
        "turn_dropout.ratio": args.td_ratio,
        "train.max_epochs": args.max_epochs,
    }
    config = config.with_overrides(overrides)
    out_dir = config.get("pipeline.out_dir")
    status = run_pipeline(config, out_dir)
    print("pipeline finished; artifacts in %s" % out_dir)
    return status


def _add_domain_flags(sub):
    # see _TRAINING_FLAGS for the configuration key behind each flag
    sub.add_argument("--variant", choices=models.VARIANTS, default=None)
    sub.add_argument("--config", default=None, help="key = value configuration file")
    sub.add_argument("--train", required=True, help="training transcript file")
    sub.add_argument("--dev", required=True, help="development transcript file")
    sub.add_argument("--lexicon", required=True, help="slot lexicon file")
    sub.add_argument("--vocab-corpus", action="append", default=[],
                     help="extra transcript whose tokens join the unified vocabulary")
    sub.add_argument("--actions-corpus", action="append", default=[],
                     help="extra transcript whose templates join the action set "
                          "and whose tokens join the vocabulary")
    sub.add_argument("--fallback", default=None, help="fallback system utterance")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--learning-rate", type=float, default=None)
    sub.add_argument("--patience", type=int, default=None)
    sub.add_argument("--word-dropout", type=float, default=None)
    sub.add_argument("--max-epochs", type=int, default=None)
    sub.add_argument("--td-ratio", type=float, default=None,
                     help="turn dropout ratio (default: per-variant)")
    sub.add_argument("--plain-dev-selection", action="store_true",
                     help="select on the unperturbed dev set")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="robusthcn",
        description="OOD-robust dialog control models: augmentation, training, evaluation",
    )
    parser.add_argument("--version", action="store_true", help="print file format versions")
    subs = parser.add_subparsers(dest="command")

    sub = subs.add_parser("toy", help="generate the synthetic restaurant mini-domain")
    sub.add_argument("--out-dir", required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--n-dialogs", type=int, default=200)
    sub.add_argument("--n-actions", type=int, default=20)
    sub.add_argument("--foreign-per-domain", type=int, default=40)
    sub.set_defaults(func=cmd_toy)

    sub = subs.add_parser("augment", help="insert OOD blocks and interjections")
    sub.add_argument("--input", required=True)
    sub.add_argument("--ood-pool", action="append", required=True,
                     help="foreign-domain transcript (repeatable)")
    sub.add_argument("--segment-pool", required=True,
                     help="interjection file, one utterance per line")
    sub.add_argument("--p-start", type=float, default=0.2)
    sub.add_argument("--p-cont", type=float, default=0.4)
    sub.add_argument("--independent-segment-prob", type=float, default=0.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--output", required=True)
    sub.add_argument("--labels-out", default=None,
                     help="label sidecar path (default: <output>.labels)")
    sub.add_argument("--stats-out", default=None)
    sub.add_argument("--fallback", default=corpus.DEFAULT_FALLBACK_TEMPLATE)
    sub.set_defaults(func=cmd_augment)

    sub = subs.add_parser("train", help="train one model variant")
    _add_domain_flags(sub)
    sub.add_argument("--embedding-size", type=int, default=None)
    sub.add_argument("--latent-size", type=int, default=None)
    sub.add_argument("--embeddings", default=None, help="pretrained embedding file")
    sub.add_argument("--out-checkpoint", required=True)
    sub.add_argument("--history-out", default=None)
    sub.set_defaults(func=cmd_train)

    sub = subs.add_parser("gridsearch", help="2-stage hyperparameter search")
    _add_domain_flags(sub)
    sub.add_argument("--stage1-grid", required=True,
                     help="comma list of embedding sizes, 'emb:latent' for VHCN")
    sub.add_argument("--stage2-grid",
                     default=",".join(str(r) for r in DEFAULT_STAGE2_GRID),
                     help="comma list of turn dropout ratios")
    sub.add_argument("--jobs", type=int, default=1)
    sub.add_argument("--results-out", required=True)
    sub.set_defaults(func=cmd_gridsearch)

    sub = subs.add_parser("evaluate", help="score a checkpoint on a test corpus")
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--test", default=None, help="OOD-augmented test transcript")
    sub.add_argument("--labels", default=None, help="label sidecar for --test")
    sub.add_argument("--plain-test", default=None, help="clean test transcript")
    sub.add_argument("--report-out", required=True)
    sub.add_argument("--model-name", default="model")
    sub.set_defaults(func=cmd_evaluate)

    sub = subs.add_parser("report", help="aggregate evaluation records into a table")
    sub.add_argument("reports", nargs="+")
    sub.add_argument("--out", default=None)
    sub.add_argument("--csv-out", default=None)
    sub.set_defaults(func=cmd_report)

    sub = subs.add_parser("pipeline", help="toy data + augment + train + evaluate + report")
    sub.add_argument("--config", default=None, help="key = value configuration file")
    sub.add_argument("--out-dir", default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--variant", choices=models.VARIANTS, default=None)
    sub.add_argument("--td-ratio", type=float, default=None)
    sub.add_argument("--max-epochs", type=int, default=None)
    sub.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.version:
        print("robusthcn %s (corpus format %d, label format %d, checkpoint format %d, "
              "report format %d)" % (__version__, CORPUS_FORMAT, LABEL_FORMAT,
                                     models.CHECKPOINT_FORMAT, REPORT_FORMAT))
        return 0
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (CliError, ConfigError, corpus.ParseError, corpus.UnknownActionError,
            aug.PoolError, models.CheckpointError, models.HashMismatchError,
            ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
