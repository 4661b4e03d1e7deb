"""Command-line front end: seeded, file-based, reproducible pipeline runs.

Subcommands: ingest, vocab, pretrain, featurize, train-classifier, evaluate,
experiment, stats. Option precedence is flags > --config file > defaults.
Exit codes: 0 success, 1 a produced report carries undefined-metric flags,
2 usage or input error, a failed file operation (disk full, I/O error) or a
size that cannot be allocated, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import types
import typing
from pathlib import Path

from . import jsonio
from .classifiers import (CLASSIFIER_KINDS, ClassifierOptions, bow_featurize,
                          featurize_corpus, load_classifier, predict_proba,
                          read_features_csv, save_classifier, write_features_csv)
from .corpus import (FileRecord, Vocabulary, build_vocabulary, corpus_from_document,
                     normalize_labels, read_corpus, vocabulary_from_json, write_corpus)
from .errors import DocumentError, TreeDefectError
from .evaluation import MetricsReport, evaluate_predictions, write_report_csv, write_report_json
from .experiments import (CvDescriptor, PairsDescriptor, average_report,
                          cv_from_folds, cv_feature_folds, dataset_stats,
                          format_stats_table, parse_descriptor, train_classifier,
                          version_pair_run)
from .minilang import parse_mini
from .pretrain import TrainConfig, pretrain, write_training_log
from .treelstm import load_model, save_model


def _add_flags(p: argparse.ArgumentParser, cls, names: tuple[str, ...]) -> None:
    """One --flag per field of dataclass `cls` in `names`, typed like the
    field. Unset flags stay None, so --config and then the dataclass default
    fill in."""
    hints = typing.get_type_hints(cls)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for name in names:
        hint = hints[name]
        members = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        default = defaults[name]
        shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       type=next((t for t in (int, float) if t in members), str),
                       help=f"default: {shown}")


_TRAIN_FLAGS = tuple(f.name for f in dataclasses.fields(TrainConfig))
_CLASSIFIER_FLAGS = tuple(f.name for f in dataclasses.fields(ClassifierOptions)
                          if f.name != "kind")
_BOW_THRESHOLD = 5  # featurize --threshold, read by --method bow only
# The classifier flags each kind does not read.
_IGNORED_BY_KIND = {"logistic": ("n_trees", "max_depth", "min_leaf", "features_per_split"),
                    "forest": ("l2",)}


def _reject_ignored(args: argparse.Namespace, names: tuple[str, ...], mode: str) -> None:
    """DocumentError when a flag among `names` was given, as `mode` ignores them.
    --config keys are not checked: one file may serve several commands."""
    for name in names:
        if getattr(args, name) is not None:
            raise DocumentError(f"--{name.replace('_', '-')} has no effect with {mode}")


def _config_file(args: argparse.Namespace, allowed: tuple[str, ...]) -> dict:
    if not args.config:
        return {}
    return jsonio.known_fields(jsonio.read(args.config), allowed, args.config, "config")


def _options(cls, args: argparse.Namespace, config: dict, **fixed):
    """Dataclass `cls` from flags > config file > the dataclass defaults."""
    values = {}
    for f in dataclasses.fields(cls):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
        elif f.name in config:
            values[f.name] = config[f.name]
    try:
        return cls(**{**values, **fixed})
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"bad option: {exc}") from exc


def _read_labels_file(path: str, sources: set[str]) -> dict[str, int]:
    """file_id -> label per entry of a labels CSV; each file_id must be in `sources`."""
    labels = {}
    for lineno, row in enumerate(jsonio.read_text(path, rows=True), start=1):
        if not row or (lineno == 1 and row[:2] == ["file_id", "label"]):
            continue
        if len(row) != 2 or row[1] not in ("0", "1"):
            raise DocumentError(f"{path}:{lineno}: expected 'file_id,label' with label 0 or 1")
        if row[0] in labels:
            raise DocumentError(f"{path}:{lineno}: repeated file_id {row[0]!r}")
        if row[0] not in sources:
            raise DocumentError(f"{path}:{lineno}: no input source file {row[0]!r}")
        labels[row[0]] = int(row[1])
    return labels


def _iter_input_files(inputs: list[str]) -> list[tuple[Path, str]]:
    """(path, file_id) pairs for every source/document file under `inputs`."""
    found = []
    for raw in inputs:
        path = Path(raw)
        if path.is_dir():
            files = sorted(p for p in path.rglob("*") if p.is_file())
            if not files:
                raise DocumentError(f"{path}: directory contains no files")
            found.extend((p, p.relative_to(path).as_posix()) for p in files)
        elif path.is_file():
            found.append((path, path.name))
        else:
            raise DocumentError(f"{path}: no such file or directory")
    return found


def cmd_ingest(args: argparse.Namespace) -> int:
    for flag in ("project", "version"):
        if not getattr(args, flag):  # a corpus entry holds non-empty strings only
            raise DocumentError(f"--{flag} must be a non-empty string")
    inputs = _iter_input_files(args.inputs)
    sources = {file_id for path, file_id in inputs if path.suffix != ".json"}
    labels = _read_labels_file(args.labels, sources) if args.labels else {}
    records: list[FileRecord] = []
    origins: list[Path] = []  # the input that held each record
    failures: list[str] = []
    for path, file_id in inputs:
        where = ""  # the readers name the file; parse and depth errors do not
        try:
            if path.suffix == ".json":
                records.extend(corpus_from_document(jsonio.read(path), str(path)))
            else:
                source = jsonio.read_text(path)
                where = f"{path}: "
                tree = normalize_labels(parse_mini(source))
                records.append(FileRecord(file_id, args.project, args.version,
                                          labels.get(file_id), tree))
        except TreeDefectError as exc:
            failures.append(f"{where}{exc}")
        origins += [path] * (len(records) - len(origins))
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures and not args.skip_bad:
        print(f"ingest failed: {len(failures)} bad input file(s)", file=sys.stderr)
        return 2
    if failures:
        print(f"warning: skipped {len(failures)} bad input file(s)", file=sys.stderr)
    # write_corpus also rejects these two; checked here for messages that
    # name the input files
    first: dict[tuple[str, str, str], Path] = {}
    for path, r in zip(origins, records):
        if r.key in first:
            raise DocumentError(f"duplicate entry for {r.key} in {first[r.key]} and {path}")
        first[r.key] = path
    if not records:
        raise DocumentError("no valid input files; nothing to ingest")
    write_corpus(args.output, records)
    print(format_stats_table(dataset_stats(records)))
    print(f"wrote {len(records)} records to {args.output}")
    return 0


def cmd_vocab(args: argparse.Namespace) -> int:
    records = read_corpus(args.corpus)
    try:
        vocab = build_vocabulary([r.tree for r in records], args.size, args.min_count)
    except ValueError as exc:  # --size or --min-count below 1
        raise DocumentError(f"bad option: {exc}") from exc
    jsonio.write(args.output, {"format_version": 1, "tokens": list(vocab.tokens)})
    print(f"wrote vocabulary of {len(vocab)} tokens to {args.output}")
    return 0


def _load_vocab_file(path: str) -> Vocabulary:
    doc = jsonio.known_fields(jsonio.read(path), ("format_version", "tokens"), path,
                              "vocabulary file", version=1)
    return vocabulary_from_json(doc.get("tokens"), f"{path}: 'tokens'")


def cmd_pretrain(args: argparse.Namespace) -> int:
    if args.vocab:
        _reject_ignored(args, ("vocab_size", "min_count"), "--vocab")
    config = _options(TrainConfig, args, _config_file(args, _TRAIN_FLAGS))
    records = read_corpus(args.corpus)
    vocab = _load_vocab_file(args.vocab) if args.vocab else None
    result = pretrain(records, config, vocab)
    save_model(args.output, result.model, result.head.U)
    if args.log:
        write_training_log(args.log, result.log)
    if result.best_epoch is None:
        print(f"wrote initialized model to {args.output} (0 epochs)")
    else:
        print(f"wrote model to {args.output}: best epoch {result.best_epoch}, "
              f"validation perplexity {result.val_perplexity:.4f}, "
              f"test perplexity {result.test_perplexity:.4f}")
    return 0


def cmd_featurize(args: argparse.Namespace) -> int:
    if args.method == "tree":
        if args.vocab or not args.model:
            raise DocumentError("--method tree needs --model and takes no --vocab")
        _reject_ignored(args, ("threshold",), "--method tree")
    if args.method == "bow" and bool(args.model) == bool(args.vocab):
        raise DocumentError("--method bow needs one of --model or --vocab for the vocabulary")
    records = read_corpus(args.corpus)
    model = load_model(args.model)[0] if args.model else None
    if args.method == "tree":
        features = featurize_corpus(records, model)
    else:
        vocab = model.vocab if model else _load_vocab_file(args.vocab)
        try:
            threshold = _BOW_THRESHOLD if args.threshold is None else args.threshold
            features = bow_featurize(records, vocab, threshold)
        except ValueError as exc:  # --threshold below 1
            raise DocumentError(f"bad option: {exc}") from exc
    write_features_csv(args.output, features)
    print(f"wrote {len(features.keys)} feature rows of dimension {features.dim} "
          f"to {args.output}")
    return 0


def cmd_train_classifier(args: argparse.Namespace) -> int:
    _reject_ignored(args, _IGNORED_BY_KIND[args.classifier], f"--classifier {args.classifier}")
    config = _config_file(args, (*_CLASSIFIER_FLAGS, "seed"))
    options = _options(ClassifierOptions, args, config, kind=args.classifier)
    seed = _options(TrainConfig, args, config).seed  # only --seed and "seed" apply
    features = read_features_csv(args.features)
    model = train_classifier(features, options, seed)
    save_classifier(args.output, model)
    print(f"wrote {args.classifier} classifier to {args.output}")
    return 0


def _summary(report: MetricsReport) -> str:
    """The precision, recall, F-measure and AUC of one report, on one line."""
    auc_text = "undefined" if report.auc is None else f"{report.auc:.4f}"
    return (f"precision {report.precision:.4f}  recall {report.recall:.4f}  "
            f"f-measure {report.f_measure:.4f}  auc {auc_text}")


def cmd_evaluate(args: argparse.Namespace) -> int:
    features = read_features_csv(args.features)
    clf = load_classifier(args.classifier_file)
    if features.dim != clf.dim:
        raise DocumentError(f"{args.features}: {features.dim} features per row, but "
                            f"{args.classifier_file} expects {clf.dim}")
    report = evaluate_predictions(predict_proba(clf, features.values),
                                  features.label_array(),
                                  (args.train_name, args.test_name))
    write_report_csv(args.output, [report])
    if args.json_output:
        write_report_json(args.json_output, [report])
    print(_summary(report))
    return 1 if report.flags else 0


def cmd_experiment(args: argparse.Namespace) -> int:
    file_config = _config_file(args, _TRAIN_FLAGS + _CLASSIFIER_FLAGS)
    config = _options(TrainConfig, args, file_config)
    records = read_corpus(args.corpus)
    descriptor = parse_descriptor(jsonio.read(args.descriptor), str(args.descriptor))
    _reject_ignored(args, _IGNORED_BY_KIND[descriptor.classifier],
                    f"the {descriptor.classifier} classifier of {args.descriptor}")
    options = _options(ClassifierOptions, args, file_config, kind=descriptor.classifier)
    out_dir = Path(args.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except jsonio.PATH_ERRORS as exc:
        raise DocumentError(f"{out_dir}: {exc.strerror or exc}") from exc
    if isinstance(descriptor, CvDescriptor):
        result = cv_from_folds(cv_feature_folds(records, descriptor.k, config), options)
        cells, avg = result.folds, result.average
        reports = [*cells, avg]  # the CV table ends with its average row
    else:
        assert isinstance(descriptor, PairsDescriptor)
        reports = cells = [version_pair_run(train, test, records, options, config)
                           for train, test in descriptor.pairs]
        avg = average_report(cells, cell=("pairs:average", "pairs:average"))
    write_report_csv(out_dir / "report.csv", reports)
    write_report_json(out_dir / "report.json", cells, avg)
    print(f"wrote {len(reports)} report rows to {out_dir / 'report.csv'}")
    print(f"average: {_summary(avg)}")
    return 1 if any(r.flags for r in reports) else 0


def cmd_stats(args: argparse.Namespace) -> int:
    records = read_corpus(args.corpus)
    stats = dataset_stats(records)
    print(format_stats_table(stats))
    if args.output:
        jsonio.write_csv(args.output, [
            ["project", "versions", "files", "mean_files", "mean_defective",
             "pct_defective"],
            *([s.project, s.versions, s.files, s.mean_files, s.mean_defective,
               f"{s.pct_defective:.2f}"] for s in stats)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treedefect",
        description="Tree-LSTM file representations for defect prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse sources or merge AST documents into a corpus")
    p.add_argument("inputs", nargs="+", help="source dirs/files or AST document files")
    p.add_argument("--output", required=True)
    p.add_argument("--project", default="default")
    p.add_argument("--version", default="1.0")
    p.add_argument("--labels", help="CSV of file_id,label assignments")
    p.add_argument("--skip-bad", action="store_true", dest="skip_bad")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("vocab", help="build a vocabulary file from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--size", type=int, default=TrainConfig.vocab_size)
    p.add_argument("--min-count", type=int, default=TrainConfig.min_count,
                   dest="min_count")
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("pretrain", help="pretrain the Tree-LSTM on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--log", help="write the per-epoch training log CSV here")
    p.add_argument("--vocab", help="use a prebuilt vocabulary file")
    p.add_argument("--config", help="JSON config file (flags override it)")
    _add_flags(p, TrainConfig, _TRAIN_FLAGS)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("featurize", help="write per-file feature vectors")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--model", help="model file (required for --method tree)")
    p.add_argument("--vocab", help="vocabulary file (bow method without a model)")
    p.add_argument("--method", choices=("tree", "bow"), default="tree")
    p.add_argument("--threshold", type=int,
                   help=f"bow binarization count (default: {_BOW_THRESHOLD})")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train-classifier", help="train a classifier on features")
    p.add_argument("--features", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--classifier", choices=CLASSIFIER_KINDS,
                   default=ClassifierOptions.kind)
    p.add_argument("--config", help="JSON config file (flags override it)")
    _add_flags(p, TrainConfig, ("seed",))
    _add_flags(p, ClassifierOptions, _CLASSIFIER_FLAGS)
    p.set_defaults(func=cmd_train_classifier)

    p = sub.add_parser("evaluate", help="evaluate a classifier on labeled features")
    p.add_argument("--features", required=True)
    p.add_argument("--classifier-file", required=True, dest="classifier_file")
    p.add_argument("--output", required=True, help="report CSV path")
    p.add_argument("--json-output", dest="json_output")
    p.add_argument("--train-name", default="train", dest="train_name")
    p.add_argument("--test-name", default="test", dest="test_name")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run a CV or version-pair experiment")
    p.add_argument("--corpus", required=True)
    p.add_argument("--descriptor", required=True, help="experiment descriptor JSON")
    p.add_argument("--output-dir", required=True, dest="output_dir")
    p.add_argument("--config", help="JSON config file (flags override it)")
    _add_flags(p, TrainConfig, _TRAIN_FLAGS)
    _add_flags(p, ClassifierOptions, _CLASSIFIER_FLAGS)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("stats", help="print per-project dataset statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", help="also write the table as CSV")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TreeDefectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the environment failed (disk full, I/O error), not the code
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # sizes this machine cannot hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # contract violations, bugs: report distinctly
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
