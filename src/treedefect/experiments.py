"""Experiment drivers: within-project cross-validation, version-pair runs,
and dataset statistics.

Every fold or pair builds its vocabulary, Tree-LSTM and classifier from the
training partition alone; held-out files only ever reach a trained model, so
test tokens unseen in training collapse to the unknown index. Fold and pair
seeds are derived from the master seed by name, keeping runs reproducible and
independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import jsonio
from .classifiers import (CLASSIFIER_KINDS, ClassifierOptions, FeatureMatrix,
                          featurize_corpus, predict_proba, train_forest,
                          train_logistic)
from .corpus import FileRecord, cell
from .errors import CorpusError, DocumentError, TrainingDataError
from .evaluation import (ConfusionMatrix, MetricsReport, evaluate_predictions,
                         stratified_k_fold)
from .pretrain import PretrainResult, TrainConfig, pretrain
from .rng import derive_seed

def train_classifier(features: FeatureMatrix, options: ClassifierOptions, seed: int):
    X, y = features.values, features.label_array()
    if options.kind == "logistic":
        return train_logistic(X, y, options.l2)
    return train_forest(X, y, options, seed)


@dataclass
class FoldFeatures:
    """Feature matrices of one CV fold, with the fold's derived seed and the
    pretraining result that produced them."""

    index: int
    seed: int
    train: FeatureMatrix
    test: FeatureMatrix
    pretrain_result: PretrainResult


@dataclass
class CvResult:
    folds: list[MetricsReport]
    average: MetricsReport


def cv_feature_folds(records: list[FileRecord], k: int,
                     config: TrainConfig) -> list[FoldFeatures]:
    """Pretrain per fold on the training partition only and featurize both
    partitions. Shared by both classifier kinds so the expensive pretraining
    happens once per fold. A class with fewer than 2 files is rejected first:
    the folds deal each class round-robin, so then, and only then, some
    fold's training partition lacks it."""
    folds = stratified_k_fold(records, k, config.seed)
    for cls in (0, 1):
        count = sum(r.label == cls for r in records)
        if count < 2:
            raise CorpusError(f"cross-validation needs at least 2 files of each class; "
                              f"class {cls} has {count}")
    out = []
    for i, test_idx in enumerate(folds):
        test_set = set(test_idx)
        train_recs = [r for j, r in enumerate(records) if j not in test_set]
        test_recs = [records[j] for j in test_idx]
        fold_seed = derive_seed(config.seed, "cv", i)
        result = pretrain(train_recs, replace(config, seed=fold_seed))
        out.append(FoldFeatures(i, fold_seed, featurize_corpus(train_recs, result.model),
                                featurize_corpus(test_recs, result.model), result))
    return out


def average_report(reports: list[MetricsReport], cell: tuple[str, str]) -> MetricsReport:
    """Macro average: metrics averaged over cells, confusion counts summed.
    Cells with undefined AUC are excluded from the AUC mean and counted in a
    flag."""
    if not reports:
        raise ValueError("cannot average an empty report list")
    matrix = ConfusionMatrix(sum(r.matrix.tp for r in reports),
                             sum(r.matrix.fp for r in reports),
                             sum(r.matrix.fn for r in reports),
                             sum(r.matrix.tn for r in reports))
    aucs = [r.auc for r in reports if r.auc is not None]
    undefined = len(reports) - len(aucs)
    flags = []
    if undefined:
        flags.append(f"auc_undefined_cells={undefined}")
    return MetricsReport(
        cell, matrix,
        float(np.mean([r.precision for r in reports])),
        float(np.mean([r.recall for r in reports])),
        float(np.mean([r.f_measure for r in reports])),
        float(np.mean(aucs)) if aucs else None,
        tuple(flags))


def _fit_and_report(train: FeatureMatrix, test: FeatureMatrix,
                    options: ClassifierOptions, seed: int,
                    cell: tuple[str, str]) -> MetricsReport:
    """Fit a classifier on `train` under the cell's seed, score `test` and
    report the cell. A fit that fails names the cell's training side."""
    try:
        clf = train_classifier(train, options, derive_seed(seed, "classifier", options.kind))
    except TrainingDataError as exc:
        raise TrainingDataError(f"{cell[0]}: {exc}") from exc
    return evaluate_predictions(predict_proba(clf, test.values), test.label_array(), cell)


def cv_from_folds(fold_features: list[FoldFeatures],
                  options: ClassifierOptions) -> CvResult:
    reports = [_fit_and_report(fold.train, fold.test, options, fold.seed,
                               (f"fold{fold.index}:train", f"fold{fold.index}:test"))
               for fold in fold_features]
    return CvResult(reports, average_report(reports, ("cv:average", "cv:average")))


def version_pair_run(train_cell: tuple[str, str], test_cell: tuple[str, str],
                     records: list[FileRecord], options: ClassifierOptions,
                     config: TrainConfig) -> MetricsReport:
    """Train everything on one (project, version) cell, test on another."""
    train_recs = cell(records, *train_cell)
    test_recs = cell(records, *test_cell)
    train_name = f"{train_cell[0]}:{train_cell[1]}"
    test_name = f"{test_cell[0]}:{test_cell[1]}"
    for role, name, recs in (("training", train_name, train_recs),
                             ("test", test_name, test_recs)):
        if not recs:
            raise CorpusError(f"{role} cell {name} is empty")
        if any(r.label is None for r in recs):
            raise CorpusError(f"{role} cell {name} has unlabeled files")
    pair_seed = derive_seed(config.seed, "pair", train_name, test_name)
    result = pretrain(train_recs, replace(config, seed=pair_seed))
    return _fit_and_report(featurize_corpus(train_recs, result.model),
                           featurize_corpus(test_recs, result.model), options,
                           pair_seed, (train_name, test_name))


# --- dataset statistics ---

@dataclass
class ProjectStats:
    project: str
    versions: int
    files: int
    mean_files: int
    mean_defective: int
    pct_defective: float


def dataset_stats(records: list[FileRecord]) -> list[ProjectStats]:
    """Per-project aggregates: version count, total files, mean files and
    mean defective files per version (floor), and the mean of per-version
    defect percentages rounded to two decimals."""
    if not records:
        raise CorpusError("corpus is empty")
    by_cell: dict[tuple[str, str], list[FileRecord]] = {}
    for r in records:
        by_cell.setdefault((r.project, r.version), []).append(r)
    projects = sorted({p for p, _ in by_cell})
    out = []
    for project in projects:
        versions = sorted(v for p, v in by_cell if p == project)
        files = [len(by_cell[(project, v)]) for v in versions]
        defective = [sum(1 for r in by_cell[(project, v)] if r.label == 1)
                     for v in versions]
        rates = [100.0 * d / f for d, f in zip(defective, files)]
        out.append(ProjectStats(
            project, len(versions), sum(files),
            sum(files) // len(versions), sum(defective) // len(versions),
            round(float(np.mean(rates)), 2)))
    return out


def format_stats_table(stats: list[ProjectStats]) -> str:
    headers = ("Project", "#Versions", "#Files", "Mean files",
               "Mean defective", "% defective")
    rows = [[s.project, str(s.versions), str(s.files), str(s.mean_files),
             str(s.mean_defective), f"{s.pct_defective:.2f}"] for s in stats]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


# --- experiment descriptors ---

@dataclass
class CvDescriptor:
    k: int
    classifier: str


@dataclass
class PairsDescriptor:
    pairs: list[tuple[tuple[str, str], tuple[str, str]]]
    classifier: str


def parse_descriptor(doc, source: str = "descriptor"):
    kind = jsonio.known_fields(doc, ("experiment", "classifier", "k", "pairs"), source,
                               "descriptor").get("experiment")
    if kind not in ("cv", "version-pairs"):
        raise DocumentError(f"{source}: 'experiment' must be 'cv' or 'version-pairs'")
    jsonio.known_fields(doc, ("experiment", "classifier", "k" if kind == "cv" else "pairs"),
                        source)
    classifier = doc.get("classifier", "forest" if kind == "cv" else "logistic")
    if classifier not in CLASSIFIER_KINDS:
        raise DocumentError(f"{source}: unknown classifier {classifier!r}")
    if kind == "cv":
        k = doc.get("k", 10)
        if not jsonio.is_int(k) or k < 2:
            raise DocumentError(f"{source}: 'k' must be an integer >= 2")
        return CvDescriptor(k, classifier)
    raw = doc.get("pairs")
    if not isinstance(raw, list) or not raw:
        raise DocumentError(f"{source}: 'pairs' must be a non-empty list")
    pairs = []
    for i, entry in enumerate(raw):
        where = f"{source}.pairs[{i}]"
        jsonio.known_fields(entry, ("train", "test"), where, "pair")
        sides = []
        for side in ("train", "test"):
            spec = jsonio.known_fields(entry.get(side), ("project", "version"),
                                       f"{where}.{side}", "side")
            if not (isinstance(spec.get("project"), str) and isinstance(spec.get("version"), str)):
                raise DocumentError(f"{where}: {side!r} needs string fields project and version")
            sides.append((spec["project"], spec["version"]))
        pairs.append((sides[0], sides[1]))
    return PairsDescriptor(pairs, classifier)
