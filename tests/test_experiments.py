from dataclasses import replace

import pytest

from treedefect import (AstTree, ClassifierOptions, CorpusError, FileRecord,
                        ForestModel, LogisticModel, TrainConfig,
                        average_report, build_vocabulary,
                        classifier_to_document, cv_feature_folds,
                        cv_from_folds, dataset_stats, format_stats_table,
                        generate_multi_cell, generate_records,
                        parse_descriptor, train_classifier, version_pair_run,
                        within_project_cv)
from treedefect.errors import DocumentError
from treedefect.evaluation import ConfusionMatrix, MetricsReport
from treedefect.experiments import CvDescriptor, PairsDescriptor


def fast_config(**overrides):
    base = dict(embedding_dim=4, hidden_dim=4, max_epochs=2, batch_size=8,
                min_count=1, seed=5)
    base.update(overrides)
    return TrainConfig(**base)


def stats_records():
    records = []
    for version, n, defective in (("1.0", 4, 1), ("2.0", 6, 3)):
        for i in range(n):
            records.append(FileRecord(f"a{i}.mini", "alpha", version,
                                      int(i < defective), AstTree("x")))
    for i in range(3):
        records.append(FileRecord(f"b{i}.mini", "beta", "1.0",
                                  int(i < 2), AstTree("x")))
    return records


def test_classifier_options_validation():
    with pytest.raises(ValueError, match="kind"):
        ClassifierOptions(kind="svm")
    assert ClassifierOptions(l2=0, features_per_split=3).l2 == 0
    for kwargs in ({"l2": -1.0}, {"l2": float("nan")}, {"l2": "1"}, {"n_trees": 0},
                   {"max_depth": 0}, {"min_leaf": 0}, {"features_per_split": 0},
                   {"n_trees": 2.5}, {"max_depth": True}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ClassifierOptions(**kwargs)


def test_train_classifier_dispatch_and_seed():
    records = generate_records(n=12, seed=1)
    from treedefect import bow_featurize

    vocab = build_vocabulary([r.tree for r in records], min_count=1)
    features = bow_featurize(records, vocab, threshold=1)
    logreg = train_classifier(features, ClassifierOptions(kind="logistic"), seed=7)
    assert isinstance(logreg, LogisticModel)
    forest_a = train_classifier(features, ClassifierOptions(kind="forest", n_trees=4), 7)
    forest_b = train_classifier(features, ClassifierOptions(kind="forest", n_trees=4), 7)
    forest_c = train_classifier(features, ClassifierOptions(kind="forest", n_trees=4), 8)
    assert isinstance(forest_a, ForestModel)
    doc_a, doc_c = classifier_to_document(forest_a), classifier_to_document(forest_c)
    assert classifier_to_document(forest_b) == doc_a
    assert doc_c["trees"] != doc_a["trees"]


def test_dataset_stats_per_project():
    stats = dataset_stats(stats_records())
    assert [s.project for s in stats] == ["alpha", "beta"]
    alpha, beta = stats
    assert (alpha.versions, alpha.files) == (2, 10)
    assert alpha.mean_files == 5  # floor(10 / 2)
    assert alpha.mean_defective == 2  # floor(4 / 2)
    assert alpha.pct_defective == 37.5  # mean of 25.0 and 50.0
    assert (beta.versions, beta.files, beta.mean_files) == (1, 3, 3)
    assert beta.pct_defective == 66.67  # 2/3 rounded to two decimals
    with pytest.raises(CorpusError):
        dataset_stats([])


def test_dataset_stats_floor_not_round():
    records = [FileRecord(f"f{i}.mini", "p", v, 1, AstTree("x"))
               for v in ("1", "2") for i in range(5)]
    records.append(FileRecord("g.mini", "p", "1", 0, AstTree("x")))
    # 11 files over 2 versions: mean files 5.5 floors to 5, defective 10/2 = 5
    stats = dataset_stats(records)[0]
    assert stats.mean_files == 5
    assert stats.mean_defective == 5


def test_format_stats_table():
    table = format_stats_table(dataset_stats(stats_records()))
    lines = table.splitlines()
    assert lines[0].split() == ["Project", "#Versions", "#Files", "Mean", "files",
                                "Mean", "defective", "%", "defective"]
    assert set(lines[1]) <= {"-", " "}
    assert "alpha" in lines[2] and "37.50" in lines[2]
    assert "beta" in lines[3] and "66.67" in lines[3]


def test_average_report():
    a = MetricsReport(("x", "x"), ConfusionMatrix(2, 1, 1, 2), 0.5, 0.5, 0.5, 0.8)
    b = MetricsReport(("y", "y"), ConfusionMatrix(1, 0, 1, 4), 0.75, 0.25, 0.375, None,
                      ("auc_undefined",))
    avg = average_report([a, b], cell=("avg", "avg"))
    assert avg.cell == ("avg", "avg")
    assert (avg.matrix.tp, avg.matrix.fp, avg.matrix.fn, avg.matrix.tn) == (3, 1, 2, 6)
    assert avg.precision == pytest.approx(0.625, abs=1e-15)
    assert avg.auc == pytest.approx(0.8, abs=1e-15)  # undefined cells excluded
    assert avg.flags == ("auc_undefined_cells=1",)
    with pytest.raises(ValueError):
        average_report([])


def test_cv_folds_have_no_leakage():
    records = generate_records(n=24, seed=2)
    config = fast_config()
    folds = cv_feature_folds(records, k=4, config=config)
    assert len(folds) == 4
    all_keys = {r.key for r in records}
    seen_test = []
    for fold in folds:
        train_keys = set(fold.train.keys)
        test_keys = set(fold.test.keys)
        assert train_keys | test_keys == all_keys
        assert not train_keys & test_keys
        seen_test.extend(fold.test.keys)
        # the fold's vocabulary comes from its training records alone
        # (pretrain further splits them and uses only its own train partition)
        from treedefect import split_records

        train_recs = [r for r in records if r.key in train_keys]
        inner_train, _, _ = split_records(train_recs, config.split, fold.seed)
        expected = build_vocabulary([r.tree for r in inner_train],
                                    config.vocab_size, config.min_count)
        assert fold.pretrain_result.model.vocab.tokens == expected.tokens
        assert not any(r.key in test_keys for r in inner_train)
    assert sorted(seen_test) == sorted(all_keys)


def test_cv_from_folds_shares_features_across_kinds():
    records = generate_records(n=24, seed=4)
    folds = cv_feature_folds(records, k=3, config=fast_config(seed=9))
    logistic = cv_from_folds(folds, ClassifierOptions(kind="logistic"))
    forest = cv_from_folds(folds, ClassifierOptions(kind="forest", n_trees=10))
    for result in (logistic, forest):
        assert len(result.folds) == 3
        assert result.average.cell == ("cv:average", "cv:average")
        assert result.auc_undefined_folds == 0
        assert result.folds[0].cell == ("fold0:train", "fold0:test")
        total = sum(r.matrix.total for r in result.folds)
        assert total == len(records)


def test_within_project_cv_deterministic():
    records = generate_records(n=18, seed=6)
    kwargs = dict(k=3, options=ClassifierOptions(kind="forest", n_trees=8),
                  config=fast_config(seed=13))
    a = within_project_cv(records, **kwargs)
    b = within_project_cv(records, **kwargs)
    assert a.folds == b.folds
    assert a.average == b.average


def test_version_pair_run_names_and_memorization():
    records = generate_multi_cell({"p": ["1.0", "2.0"]}, files_per_cell=16, seed=3)
    report = version_pair_run(("p", "1.0"), ("p", "1.0"), records,
                              ClassifierOptions(kind="forest"),
                              fast_config(seed=17))
    assert report.cell == ("p:1.0", "p:1.0")
    # testing on the training cell: a deep forest memorizes its inputs
    assert report.recall >= 0.9
    assert report.matrix.total == 16
    cross = version_pair_run(("p", "1.0"), ("p", "2.0"), records,
                             ClassifierOptions(kind="logistic"),
                             fast_config(seed=17))
    assert cross.cell == ("p:1.0", "p:2.0")
    assert cross.matrix.total == 16


def test_version_pair_run_deterministic():
    records = generate_multi_cell({"p": ["1.0", "2.0"]}, files_per_cell=12, seed=7)
    args = (("p", "1.0"), ("p", "2.0"), records,
            ClassifierOptions(kind="forest", n_trees=8), fast_config(seed=19))
    assert version_pair_run(*args) == version_pair_run(*args)


def test_version_pair_run_errors():
    records = generate_multi_cell({"p": ["1.0", "2.0"]}, files_per_cell=8, seed=9)
    options = ClassifierOptions(kind="logistic")
    config = fast_config()
    with pytest.raises(CorpusError, match="q:1.0"):
        version_pair_run(("q", "1.0"), ("p", "1.0"), records, options, config)
    with pytest.raises(CorpusError, match="p:9.9"):
        version_pair_run(("p", "1.0"), ("p", "9.9"), records, options, config)
    unlabeled = [replace(r, label=None) if r.version == "2.0" else r for r in records]
    with pytest.raises(CorpusError, match="unlabeled"):
        version_pair_run(("p", "1.0"), ("p", "2.0"), unlabeled, options, config)


def test_parse_descriptor_cv():
    desc = parse_descriptor({"experiment": "cv", "k": 5, "classifier": "logistic"})
    assert desc == CvDescriptor(5, "logistic")
    assert parse_descriptor({"experiment": "cv"}) == CvDescriptor(10, "forest")
    with pytest.raises(DocumentError, match="'k'"):
        parse_descriptor({"experiment": "cv", "k": 1})
    with pytest.raises(DocumentError, match="classifier"):
        parse_descriptor({"experiment": "cv", "classifier": "svm"})


def test_parse_descriptor_pairs():
    doc = {"experiment": "version-pairs",
           "pairs": [{"train": {"project": "a", "version": "1"},
                      "test": {"project": "b", "version": "2"}}]}
    desc = parse_descriptor(doc)
    assert isinstance(desc, PairsDescriptor)
    assert desc.pairs == [(("a", "1"), ("b", "2"))]
    assert desc.classifier == "logistic"
    with pytest.raises(DocumentError, match="pairs"):
        parse_descriptor({"experiment": "version-pairs", "pairs": []})
    with pytest.raises(DocumentError, match=r"pairs\[0\]"):
        parse_descriptor({"experiment": "version-pairs",
                          "pairs": [{"train": {"project": "a"}}]})
    with pytest.raises(DocumentError, match="experiment"):
        parse_descriptor({"experiment": "bake-off"})
    with pytest.raises(DocumentError):
        parse_descriptor([])


def test_generate_records_properties():
    records = generate_records(n=10, defect_rate=0.5, seed=21)
    assert len(records) == 10
    assert sum(r.label for r in records) == 5
    assert all(r.tree.label == "CompilationUnit" for r in records)
    again = generate_records(n=10, defect_rate=0.5, seed=21)
    assert records == again
    other = generate_records(n=10, defect_rate=0.5, seed=22)
    assert records != other
    with pytest.raises(ValueError):
        generate_records(n=0)
    with pytest.raises(ValueError):
        generate_records(n=5, defect_rate=1.5)


def test_generate_multi_cell_layout():
    records = generate_multi_cell({"b": ["2.0"], "a": ["1.0", "1.1"]},
                                  files_per_cell=5, seed=23)
    cells = {(r.project, r.version) for r in records}
    assert cells == {("a", "1.0"), ("a", "1.1"), ("b", "2.0")}
    assert len(records) == 15
