"""Command-line front end: toy / augment / train / gridsearch / evaluate / report / pipeline.

Subcommands compose through files only; ``pipeline`` runs the toy, augment
and report stages through the subcommands' own functions, and a flag that
sets a configuration key names it as its argparse ``dest``.  Every
record-style artifact carries the resolved configuration, and all
randomness flows from one root seed through named stream derivation, so a
rerun with the same configuration reproduces every output.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import __version__, augment as aug, corpus, evaluation, models, toy
from .config import RunConfig, resolve_training
from .seeding import derive_seed
from .train import DEFAULT_STAGE2_GRID, TrainingDiverged, grid_search, train_model

CORPUS_FORMAT = 1
LABEL_FORMAT = 1
REPORT_FORMAT = 1


class CliError(RuntimeError):
    pass


def _read(read, path, flag):
    """``read(path)`` for the file behind ``flag``, a flag or a configuration key.

    A file that cannot be opened, is not UTF-8 or breaks its format (every
    format's own error is a ValueError) raises one CliError naming the
    flag and the file.
    """
    try:
        return read(path)
    except OSError as exc:
        raise CliError("cannot read %s file %r: %s" % (flag, path, exc.strerror)) from exc
    except ValueError as exc:
        raise CliError("%s file %r: %s" % (flag, path, exc)) from exc


def _text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(write, path):
    """``write(path)`` after creating the file's directory.

    A write that fails raises one CliError naming the file.
    """
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        write(path)
    except OSError as exc:
        raise CliError("cannot write %r: %s" % (path, exc.strerror)) from exc


def _write_text(path, text):
    _write(lambda p: Path(p).write_text(text, encoding="utf-8"), path)


def _load_dialogs(path, flag):
    return _read(lambda p: corpus.parse_dialogs(_text(p)), path, flag)


def _load_lexicon(path, flag):
    return _read(lambda p: corpus.Lexicon.from_lines(_text(p).split("\n")), path, flag)


def _write_toy_data(config, out):
    """The ``toy.*`` keys' domain and foreign dialogs, written to the directory ``out``."""
    seed = config.seed_for("toy")
    domain = toy.generate_toy_domain(seed, config.get("toy.n_dialogs"), config.get("toy.n_actions"))
    foreign = toy.generate_foreign_dialogs(derive_seed(seed, "foreign"))
    for name, dialogs in (("train", domain.train), ("dev", domain.dev),
                          ("test", domain.test), ("ood_pool", foreign)):
        _write_text(os.path.join(out, name + ".txt"), corpus.write_dialogs(dialogs))
    _write_text(os.path.join(out, "lexicon.txt"), "\n".join(domain.lexicon.to_lines()) + "\n")
    _write_text(os.path.join(out, "segment_pool.txt"), toy.segment_pool_text())
    return domain, foreign


def cmd_toy(args):
    domain, foreign = _write_toy_data(_load_config(args), args.out_dir)
    print("toy domain written to %s (train=%d dev=%d test=%d, pool dialogs=%d)"
          % (args.out_dir, len(domain.train), len(domain.dev), len(domain.test), len(foreign)))
    return 0


def _pool_file(path):
    dialogs = corpus.parse_dialogs(_text(path))
    return dialogs, aug.load_ood_pool(dialogs, source=path)


def _load_ood_pool(paths, flag):
    """The ``flag`` files' dialogs (for the vocabulary) and the merge of their OOD pools."""
    loaded = [_read(_pool_file, path, flag) for path in paths]
    return ([d for dialogs, _ in loaded for d in dialogs],
            aug.merge_ood_pools([pool for _, pool in loaded]))


def _write_augmented(config, dialogs, pool, segment_pool, output, labels_out, stats_out=None):
    """``dialogs`` augmented by the ``augment.*`` keys, written with their labels and stats."""
    aug_config = aug.AugmentationConfig(
        p_ood_start=config.get("augment.p_ood_start"),
        p_ood_cont=config.get("augment.p_ood_cont"),
        independent_segment_prob=config.get("augment.independent_segment_prob"),
        seed=config.seed_for("augment"),
    )
    augmented, stats = aug.augment_corpus(dialogs, aug_config, pool, segment_pool,
                                          fallback_utterance=config.get("corpus.fallback_template"))
    _write_text(output, corpus.write_dialogs(augmented))
    _write_text(labels_out, aug.labels_text(augmented))
    if stats_out:
        _write_text(stats_out, "\n".join(stats.to_lines() + config.echo_lines()) + "\n")
    return augmented, stats


def cmd_augment(args):
    config = _load_config(args)
    dialogs = _load_dialogs(args.input, "--input")
    _, pool = _load_ood_pool(args.ood_pool, "--ood-pool")
    segment_pool = _read(lambda p: aug.load_segment_pool(_text(p)), args.segment_pool,
                         "--segment-pool")
    _, stats = _write_augmented(
        config, dialogs, pool, segment_pool, args.output,
        args.output + ".labels" if args.labels_out is None else args.labels_out, args.stats_out)
    print("augmented %d dialogs: %s" % (stats.dialogs,
          ", ".join(stats.to_lines()[2:6]).replace(" = ", "=")))
    return 0


def _load_config(args):
    """The ``--config`` file's configuration, with every flag that sets a key laid over it.

    A dotted argparse ``dest`` is a configuration key.  A flag left unset is
    None and keeps the file's value or the built-in default.
    """
    path = getattr(args, "config", None)
    config = _read(lambda p: RunConfig.parse(_text(p)), path, "--config") if path else RunConfig()
    return config.with_overrides({k: v for k, v in vars(args).items() if "." in k})


def _training_setup(args):
    """Resolved configuration and featurized train/dev sets for train/gridsearch."""
    config = _load_config(args)
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
    return _read(lambda p: corpus.load_embedding_table(p, vocab, seed=config.seed_for("train")),
                 path, "--embeddings / model.embedding_file")


def _train_record(train_config):
    """Every resolved TrainConfig field as ``train.<field>``: a dict, and its ``# config.`` lines."""
    extra = {"train." + k: str(v) for k, v in dataclasses.asdict(train_config).items()}
    return extra, ["# config.%s = %s" % item for item in sorted(extra.items())]


def cmd_train(args):
    config, data, model_config, train_config, train_feats, dev_feats = _training_setup(args)
    model, history = train_model(
        model_config, train_config, train_feats, dev_feats, data.vocab, data.action_set,
        data.n_context, embedding_table=_embedding_table(config, data.vocab),
    )
    extra, echo = _train_record(train_config)
    _write(lambda p: models.save_checkpoint(p, model, data.lexicon, extra=extra),
           args.out_checkpoint)
    if args.history_out:
        _write_text(args.history_out, "\n".join(history.to_lines() + echo) + "\n")
    print("trained %s: best dev acc %.4f at epoch %d (%d epochs, %.1fs)"
          % (model_config.variant, history.best_dev_acc, history.best_epoch,
             len(history.epochs), history.wall_time_s))
    return 0


def _parse_grid(text, flag, parse, form):
    """The comma-separated items of a grid flag, each through ``parse``."""
    values = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            values.append(parse(item))
        except ValueError:
            raise CliError("%s item %r is not %s" % (flag, item, form)) from None
    return values


def _stage1_cell(item):
    emb, colon, latent = item.partition(":")
    return int(emb), int(latent) if colon else None


# the stage-1 grid sets the sizes, and grid cells train from random embeddings
_GRID_OWNED_KEYS = ("model.embedding_file", "model.embedding_size", "model.latent_size")


def cmd_gridsearch(args):
    if args.jobs < 1:
        raise CliError("--jobs must be at least 1")
    config, data, model_config, base_train, train_feats, dev_feats = _training_setup(args)
    owned = [key for key in _GRID_OWNED_KEYS if config.get(key) is not None]
    if owned:
        raise CliError("gridsearch does not take %s from --config "
                       "(--stage1-grid sets the model sizes)" % ", ".join(owned))
    stage1 = _parse_grid(args.stage1_grid, "--stage1-grid", _stage1_cell,
                         "EMBEDDING or EMBEDDING:LATENT in integers")
    if not stage1:
        raise CliError("--stage1-grid is empty")
    stage2 = _parse_grid(args.stage2_grid, "--stage2-grid", float, "a number")
    result = grid_search(
        model_config.variant, stage1, stage2, train_feats, dev_feats, data.vocab,
        data.action_set, n_context=data.n_context, base_model_config=model_config,
        base_train_config=base_train, jobs=args.jobs,
    )
    _write_text(args.results_out,
                "\n".join(result.to_lines() + _train_record(result.train_config)[1]) + "\n")
    print("grid search done: embedding=%d latent=%s td_ratio=%.2f"
          % (result.model_config.embedding_size, result.model_config.latent_size,
             result.train_config.turn_dropout_ratio))
    return 0


def _evaluate_to_record(model, data, dialogs, prefix):
    row = evaluation.evaluate_model(model, data.featurize(dialogs), data.vocab, data.action_set)
    return row.to_kv(prefix + ".")


def cmd_evaluate(args):
    if args.test is None and args.plain_test is None:
        raise CliError("at least one of --test or --plain-test is required")
    if args.labels is not None and args.test is None:
        raise CliError("--labels requires --test (it labels the --test transcript)")
    loaded = _read(models.load_checkpoint, args.checkpoint, "--checkpoint")
    model = models.model_from_checkpoint(loaded)
    data = corpus.Featurizer(loaded.lexicon, loaded.vocab, loaded.action_set)
    lines = ["model = %s" % args.model_name]
    lines.extend("config.checkpoint.%s = %s" % (k, v) for k, v in sorted(loaded.extra.items()))
    if args.test is not None:
        dialogs = _load_dialogs(args.test, "--test")
        if args.labels is not None:
            dialogs = _read(lambda p: aug.apply_labels(dialogs, aug.parse_labels(_text(p))),
                            args.labels, "--labels")
        lines.extend(_evaluate_to_record(model, data, dialogs, "augmented"))
    if args.plain_test is not None:
        dialogs = _load_dialogs(args.plain_test, "--plain-test")
        lines.extend(_evaluate_to_record(model, data, dialogs, "plain"))
    _write_text(args.report_out, "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def _write_report_tables(records, table_out, csv_out):
    """The records' table lines, written to ``table_out`` and as CSV to ``csv_out`` when given."""
    table = evaluation.format_report_table(records)
    if table_out:
        _write_text(table_out, "\n".join(table) + "\n")
    if csv_out:
        _write_text(csv_out, "\n".join(evaluation.format_report_csv(records)) + "\n")
    return table


def cmd_report(args):
    records = [_read(lambda p: evaluation.parse_report(_text(p)), path, "report input")
               for path in args.reports]
    print("\n".join(_write_report_tables(records, args.out, args.csv_out)))
    return 0


def run_pipeline(config, out_dir):
    """toy or ``data.*`` -> augment -> train -> evaluate -> report on one configuration."""
    stage = "setup"
    try:
        model_config, train_config = resolve_training(config)

        stage = "data"
        from_files = bool(config.get("data.train"))
        # the toy.* keys describe the data only without data.train, the data.* keys only with it
        stray = sorted(k for k in config.values if k.startswith("toy." if from_files else "data."))
        if stray:
            raise CliError("%s do not apply when data.train is %s"
                           % (", ".join(stray), "set" if from_files else "not set"))
        if from_files:
            for key in ("data.dev", "data.test", "data.lexicon",
                        "data.ood_pool", "data.segment_pool"):
                if not config.get(key):
                    raise CliError("%s must be set when data.train is" % key)
            train_dialogs = _load_dialogs(config.get("data.train"), "data.train")
            dev_dialogs = _load_dialogs(config.get("data.dev"), "data.dev")
            test_dialogs = _load_dialogs(config.get("data.test"), "data.test")
            lexicon = _load_lexicon(config.get("data.lexicon"), "data.lexicon")
            foreign, pool = _load_ood_pool(
                [path.strip() for path in config.get("data.ood_pool").split(",")], "data.ood_pool")
            segment_pool = _read(lambda p: aug.load_segment_pool(_text(p)),
                                 config.get("data.segment_pool"), "data.segment_pool")
        else:
            domain, foreign = _write_toy_data(config, os.path.join(out_dir, "data"))
            pool = aug.load_ood_pool(foreign, source="ood-pool")
            lexicon = domain.lexicon
            segment_pool = aug.load_segment_pool(toy.segment_pool_text())
            train_dialogs, dev_dialogs, test_dialogs = domain.train, domain.dev, domain.test

        stage = "augment"
        test_aug, _ = _write_augmented(config, test_dialogs, pool, segment_pool,
                                       os.path.join(out_dir, "test_ood.txt"),
                                       os.path.join(out_dir, "test_ood.labels"),
                                       os.path.join(out_dir, "augment_stats.txt"))

        stage = "featurize"
        data = corpus.prepare(lexicon, [train_dialogs, dev_dialogs, test_dialogs],
                              [foreign, segment_pool.as_dialogs()],
                              fallback=config.get("corpus.fallback_template"))
        train_feats = data.featurize(train_dialogs)
        dev_feats = data.featurize(dev_dialogs)

        stage = "train"
        model, history = train_model(
            model_config, train_config, train_feats, dev_feats, data.vocab, data.action_set,
            data.n_context, embedding_table=_embedding_table(config, data.vocab),
        )
        _write(lambda p: models.save_checkpoint(p, model, lexicon),
               os.path.join(out_dir, "model.ckpt"))
        _write_text(os.path.join(out_dir, "history.txt"),
                    "\n".join(history.to_lines() + config.echo_lines("# config.")) + "\n")

        stage = "evaluate"
        model_name = ("TD-" if train_config.turn_dropout_ratio > 0 else "") + model_config.variant
        lines = ["model = %s" % model_name]
        lines.extend(_evaluate_to_record(model, data, test_aug, "augmented"))
        if config.get("pipeline.eval_plain"):
            lines.extend(_evaluate_to_record(model, data, test_dialogs, "plain"))
        lines.extend(config.echo_lines())
        _write_text(os.path.join(out_dir, "report.txt"), "\n".join(lines) + "\n")

        stage = "report"
        _write_report_tables([evaluation.parse_report("\n".join(lines))],
                             os.path.join(out_dir, "results_table.txt"),
                             os.path.join(out_dir, "results_table.csv"))
        _write_text(os.path.join(out_dir, "run_config.txt"),
                    "\n".join(config.echo_lines(prefix="")) + "\n")
    except (CliError, TrainingDiverged, ValueError, OSError) as exc:
        raise CliError("stage %s: %s" % (stage, exc)) from exc
    return 0


def cmd_pipeline(args):
    config = _load_config(args)
    status = run_pipeline(config, config.get("pipeline.out_dir"))
    print("pipeline finished; artifacts in %s" % config.get("pipeline.out_dir"))
    return status


def _add_domain_flags(sub):
    sub.add_argument("--variant", dest="model.variant", choices=models.VARIANTS)
    sub.add_argument("--config", default=None, help="key = value configuration file")
    sub.add_argument("--train", required=True, help="training transcript file")
    sub.add_argument("--dev", required=True, help="development transcript file")
    sub.add_argument("--lexicon", required=True, help="slot lexicon file")
    sub.add_argument("--vocab-corpus", action="append", default=[],
                     help="extra transcript whose tokens join the unified vocabulary")
    sub.add_argument("--actions-corpus", action="append", default=[],
                     help="extra transcript whose templates join the action set "
                          "and whose tokens join the vocabulary")
    sub.add_argument("--fallback", dest="corpus.fallback_template",
                     help="fallback system utterance")
    sub.add_argument("--seed", dest="train.seed", type=int)
    sub.add_argument("--learning-rate", dest="train.learning_rate", type=float)
    sub.add_argument("--patience", dest="train.patience", type=int)
    sub.add_argument("--word-dropout", dest="train.word_dropout", type=float)
    sub.add_argument("--max-epochs", dest="train.max_epochs", type=int)
    sub.add_argument("--td-ratio", dest="turn_dropout.ratio", type=float,
                     help="turn dropout ratio (default: per-variant)")
    sub.add_argument("--plain-dev-selection", dest="train.dev_turn_dropout", action="store_const",
                     const=False, help="select on the unperturbed dev set")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="robusthcn",
        description="OOD-robust dialog control models: augmentation, training, evaluation",
    )
    parser.add_argument("--version", action="store_true", help="print file format versions")
    subs = parser.add_subparsers(dest="command")

    sub = subs.add_parser("toy", help="generate the synthetic restaurant mini-domain")
    sub.add_argument("--out-dir", required=True)
    sub.add_argument("--seed", dest="toy.seed", type=int, help="default: derived from run.seed")
    sub.add_argument("--n-dialogs", dest="toy.n_dialogs", type=int)
    sub.add_argument("--n-actions", dest="toy.n_actions", type=int)
    sub.set_defaults(func=cmd_toy)

    sub = subs.add_parser("augment", help="insert OOD blocks and interjections")
    sub.add_argument("--input", required=True)
    sub.add_argument("--ood-pool", action="append", required=True,
                     help="foreign-domain transcript (repeatable)")
    sub.add_argument("--segment-pool", required=True,
                     help="interjection file, one utterance per line")
    sub.add_argument("--p-start", dest="augment.p_ood_start", type=float)
    sub.add_argument("--p-cont", dest="augment.p_ood_cont", type=float)
    sub.add_argument("--independent-segment-prob", dest="augment.independent_segment_prob",
                     type=float)
    sub.add_argument("--seed", dest="augment.seed", type=int, help="default: derived from run.seed")
    sub.add_argument("--output", required=True)
    sub.add_argument("--labels-out", default=None,
                     help="label sidecar path (default: <output>.labels)")
    sub.add_argument("--stats-out", default=None)
    sub.add_argument("--fallback", dest="corpus.fallback_template",
                     help="fallback system utterance")
    sub.set_defaults(func=cmd_augment)

    sub = subs.add_parser("train", help="train one model variant")
    _add_domain_flags(sub)
    sub.add_argument("--embedding-size", dest="model.embedding_size", type=int)
    sub.add_argument("--latent-size", dest="model.latent_size", type=int)
    sub.add_argument("--embeddings", dest="model.embedding_file", help="pretrained embedding file")
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
    sub.add_argument("--out-dir", dest="pipeline.out_dir")
    sub.add_argument("--seed", dest="run.seed", type=int)
    sub.add_argument("--variant", dest="model.variant", choices=models.VARIANTS)
    sub.add_argument("--td-ratio", dest="turn_dropout.ratio", type=float)
    sub.add_argument("--max-epochs", dest="train.max_epochs", type=int)
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
    except (CliError, corpus.UnknownActionError, TrainingDiverged, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
