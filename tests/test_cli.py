import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from treedefect import (TrainConfig, bow_featurize, build_vocabulary, featurize_corpus,
                        flatten, generate_multi_cell, generate_records, normalize_labels,
                        parse_mini, pretrain, read_corpus, read_features_csv, save_model,
                        split_records, write_corpus)
from treedefect.cli import main
from treedefect.corpus import MAX_TREE_DEPTH
from treedefect.jsonio import read

from conftest import poison_embedding

GOOD_SOURCE = "int i = 0;\nwhile (i < 3) {\n  work(i);\n  i = i + 1;\n}\n"
OTHER_SOURCE = 'string msg = "hi";\nif (ready(msg)) { send(msg); }\n'
BAD_SOURCE = "int = ;\n"

FAST_TRAIN = ["--embedding-dim", "4", "--hidden-dim", "4", "--max-epochs", "2",
              "--min-count", "1", "--batch-size", "8", "--seed", "11"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus, model and features built once through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.json"
    write_corpus(corpus, generate_records(n=18, seed=31))
    model = root / "model.json"
    assert main(["pretrain", "--corpus", str(corpus), "--output", str(model),
                 *FAST_TRAIN]) == 0
    features = root / "features.csv"
    assert main(["featurize", "--corpus", str(corpus), "--model", str(model),
                 "--output", str(features)]) == 0
    return {"root": root, "corpus": corpus, "model": model, "features": features}


def test_ingest_sources_with_labels(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.mini").write_text(GOOD_SOURCE, encoding="utf-8")
    (src / "b.mini").write_text(OTHER_SOURCE, encoding="utf-8")
    (src / "c.mini").write_text(GOOD_SOURCE, encoding="utf-8")
    labels = tmp_path / "labels.csv"
    labels.write_text("file_id,label\na.mini,1\nb.mini,0\n", encoding="utf-8")
    out = tmp_path / "corpus.json"
    code = main(["ingest", str(src), "--output", str(out), "--project", "demo",
                 "--version", "2.1", "--labels", str(labels)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "Project" in printed and "wrote 3 records" in printed
    records = read_corpus(out)
    assert [r.file_id for r in records] == ["a.mini", "b.mini", "c.mini"]
    assert [r.label for r in records] == [1, 0, None]
    assert all(r.project == "demo" and r.version == "2.1" for r in records)
    assert records[0].tree.label == "CompilationUnit"
    # literals arrive normalized
    from treedefect import preorder
    labels_seen = set(preorder(records[0].tree)[0])
    assert "IntegerLiteralExpr" in labels_seen and "0" not in labels_seen


def test_ingest_bad_file_exit_codes(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "good.mini").write_text(GOOD_SOURCE, encoding="utf-8")
    (src / "bad.mini").write_text(BAD_SOURCE, encoding="utf-8")
    out = tmp_path / "corpus.json"
    assert main(["ingest", str(src), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count(str(src / "bad.mini")) == 1 and "line 1" in err
    assert not out.exists()
    assert main(["ingest", str(src), "--output", str(out), "--skip-bad"]) == 0
    err = capsys.readouterr().err
    assert "skipped 1 bad input file" in err
    assert [r.file_id for r in read_corpus(out)] == ["good.mini"]


def test_ingest_deeply_nested_source_is_bad_input(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "good.mini").write_text(GOOD_SOURCE, encoding="utf-8")
    (src / "deep.mini").write_text("x = " + "(" * 3000 + "1" + ")" * 3000 + ";\n",
                                   encoding="utf-8")
    out = tmp_path / "corpus.json"
    assert main(["ingest", str(src), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count(str(src / "deep.mini")) == 1 and "nesting deeper than" in err
    assert not out.exists()
    assert main(["ingest", str(src), "--output", str(out), "--skip-bad"]) == 0
    assert "skipped 1 bad input file" in capsys.readouterr().err
    assert [r.file_id for r in read_corpus(out)] == ["good.mini"]


def test_ingest_merges_documents_and_rejects_duplicates(tmp_path, capsys):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    third = tmp_path / "three.json"  # repeats one entry of the first
    write_corpus(first, generate_records(n=4, seed=33, version="1.0"))
    write_corpus(second, generate_records(n=4, seed=34, version="2.0"))
    write_corpus(third, generate_records(n=4, seed=33, version="1.0")[2:3])
    merged = tmp_path / "merged.json"
    assert main(["ingest", str(first), str(second), "--output", str(merged)]) == 0
    assert len(read_corpus(merged)) == 8
    capsys.readouterr()
    assert main(["ingest", str(first), str(first), "--output", str(merged)]) == 2
    assert f"in {first} and {first}" in capsys.readouterr().err
    assert main(["ingest", str(first), str(second), str(third),
                 "--output", str(merged)]) == 2
    err = capsys.readouterr().err
    assert "duplicate entry for ('synthetic', '1.0', 'file0002.mini')" in err
    assert f"in {first} and {third}" in err


def test_ingest_missing_input(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "nowhere"),
                 "--output", str(tmp_path / "c.json")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    (tmp_path / "a.mini").write_text(GOOD_SOURCE, encoding="utf-8")
    capsys.readouterr()
    assert main(["ingest", str(tmp_path / "a.mini"), str(empty),
                 "--output", str(tmp_path / "c.json")]) == 2
    assert f"error: {empty}: directory contains no files" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_vocab_command(tmp_path, workspace, capsys):
    out = tmp_path / "vocab.json"
    for flag in ("--size", "--min-count"):
        assert main(["vocab", "--corpus", str(workspace["corpus"]),
                     "--output", str(out), flag, "0"]) == 2
        assert "bad option" in capsys.readouterr().err
        assert not out.exists()
    assert main(["vocab", "--corpus", str(workspace["corpus"]),
                 "--output", str(out), "--min-count", "1"]) == 0
    doc = read(out)
    assert doc["format_version"] == 1
    assert doc["tokens"][0] == "<unk>"
    assert "CompilationUnit" in doc["tokens"]


def test_pretrain_writes_model_and_log(tmp_path, workspace, capsys):
    model = tmp_path / "model.json"
    log = tmp_path / "log.csv"
    code = main(["pretrain", "--corpus", str(workspace["corpus"]),
                 "--output", str(model), "--log", str(log), *FAST_TRAIN])
    assert code == 0
    printed = capsys.readouterr().out
    assert "best epoch" in printed
    doc = read(model)
    assert doc["format_version"] == 1 and doc["d"] == 4
    lines = log.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,train_loss,val_perplexity,improved"
    assert len(lines) >= 2
    # same seed, same corpus: byte-identical model
    rerun = tmp_path / "model2.json"
    main(["pretrain", "--corpus", str(workspace["corpus"]),
          "--output", str(rerun), *FAST_TRAIN])
    assert rerun.read_bytes() == model.read_bytes()


def test_pretrain_config_file_and_flag_precedence(tmp_path, workspace):
    config = tmp_path / "config.json"
    config.write_text('{"embedding_dim":4,"hidden_dim":4,"max_epochs":0,'
                      '"min_count":1,"seed":11}\n', encoding="utf-8")
    out = tmp_path / "model.json"
    assert main(["pretrain", "--corpus", str(workspace["corpus"]),
                 "--output", str(out), "--config", str(config)]) == 0
    assert read(out)["d"] == 4
    # a flag overrides the config file
    assert main(["pretrain", "--corpus", str(workspace["corpus"]),
                 "--output", str(out), "--config", str(config),
                 "--embedding-dim", "3"]) == 0
    assert read(out)["d"] == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"embeding_dim":4}\n', encoding="utf-8")
    assert main(["pretrain", "--corpus", str(workspace["corpus"]),
                 "--output", str(out), "--config", str(bad)]) == 2


@pytest.mark.parametrize("flags", [["--embedding-dim", "0"], ["--hidden-dim", "0"],
                                   ["--vocab-size", "0"], ["--min-count", "0"],
                                   ["--config", "float-epochs.json"],
                                   ["--learning-rate", "nan"], ["--learning-rate", "inf"],
                                   ["--rms-epsilon", "nan"], ["--split", "nan,0.5,0.5"],
                                   ["--config", "bool-rates.json"]],
                         ids=["embedding-dim", "hidden-dim", "vocab-size", "min-count",
                              "float-max-epochs-in-config", "nan-learning-rate",
                              "inf-learning-rate", "nan-rms-epsilon", "nan-split",
                              "bool-rates-in-config"])
def test_pretrain_bad_training_options_are_bad_input(tmp_path, workspace, capsys,
                                                     monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    Path("float-epochs.json").write_text('{"max_epochs": 1.5}\n', encoding="utf-8")
    Path("bool-rates.json").write_text('{"learning_rate": true, "dropout_rate": false}\n',
                                       encoding="utf-8")
    assert main(["pretrain", "--corpus", str(workspace["corpus"]),
                 "--output", "model.json", *flags]) == 2
    assert "bad option" in capsys.readouterr().err
    assert not Path("model.json").exists()


# Sizes no machine can map: numpy refuses more than 2**63 bytes before it
# allocates, and (2**46, 4) floats take 2**51 bytes, beyond the 2**47-byte
# x86-64 address space.
@pytest.mark.filterwarnings("ignore:embedding dimension")
@pytest.mark.parametrize("flags, size", [
    (["--embedding-dim", str(2**70)], f"embedding dimension {2**70}"),
    (["--hidden-dim", str(2**46), "--embedding-dim", "4"], f"shape ({2**46}, 4)"),
], ids=["embedding-dim-2**70", "hidden-dim-2**46"])
def test_model_sizes_that_cannot_be_allocated_are_bad_input(tmp_path, workspace, capsys,
                                                            flags, size):
    model = tmp_path / "model.json"
    assert main(["pretrain", "--corpus", str(workspace["corpus"]), "--output", str(model),
                 "--max-epochs", "1", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and size in err
    assert not model.exists()


def test_pretraining_without_a_finite_validation_perplexity_is_named(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    write_corpus(corpus, generate_records(24, seed=1))
    model = tmp_path / "model.json"
    assert main(["pretrain", "--corpus", str(corpus), "--output", str(model),
                 "--learning-rate", "1000", "--embedding-dim", "4", "--max-epochs", "3",
                 "--min-count", "1"]) == 2
    assert capsys.readouterr().err == ("error: no finite validation perplexity in 3 epoch(s); "
                                       "the last was inf; step size: learning_rate 1000.0, "
                                       "rms_epsilon 1e-06\n")
    assert not model.exists()


@pytest.fixture(scope="module")
def corpus_of_60(tmp_path_factory):
    path = tmp_path_factory.mktemp("diverge") / "corpus.json"
    write_corpus(path, generate_records(60, seed=1))
    return path


# numpy overflows in rmsprop_step's divide (1e308, 1.7e308), in the softmax's
# subtract (1e307 seed 1) and in the head's product (1e307 seed 3, 5e307)
@pytest.mark.parametrize("rate, seed", [("1e308", "1"), ("1e308", "2"), ("1.7e308", "1"),
                                        ("1.7e308", "2"), ("1e307", "1"), ("1e307", "3"),
                                        ("5e307", "1")])
def test_a_step_size_that_overflows_is_one_error_line(tmp_path, corpus_of_60, capsys, rate,
                                                      seed):
    model = tmp_path / "model.json"
    assert main(["pretrain", "--corpus", str(corpus_of_60), "--output", str(model),
                 "--embedding-dim", "4", "--max-epochs", "3", "--patience", "3",
                 "--min-count", "1", "--learning-rate", rate, "--seed", seed]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not model.exists()


def test_pretraining_reaching_a_non_finite_state_at_test_is_one_error_line(
        tmp_path, capsys, monkeypatch):
    records = generate_records(30, seed=19)
    _, _, test = split_records(records, TrainConfig().split, 23)
    poison_embedding(monkeypatch, test[0])
    corpus, vocab, model = (tmp_path / name for name in ("corpus.json", "vocab.json",
                                                         "model.json"))
    write_corpus(corpus, records)
    assert main(["vocab", "--corpus", str(corpus), "--output", str(vocab),
                 "--min-count", "1"]) == 0
    capsys.readouterr()
    assert main(["pretrain", "--corpus", str(corpus), "--output", str(model), "--vocab",
                 str(vocab), "--embedding-dim", "4", "--hidden-dim", "4", "--batch-size", "4",
                 "--max-epochs", "2", "--seed", "23"]) == 2
    assert capsys.readouterr().err == (
        f"error: non-finite hidden state in the tree forward pass of {test[0].file_id} "
        "(test); step size: learning_rate 0.001, rms_epsilon 1e-06\n")
    assert not model.exists()


def test_featurize_tree_output(workspace):
    features = read_features_csv(workspace["features"])
    assert features.dim == 4
    assert len(features.keys) == 18
    assert set(features.labels) <= {0, 1}


def _model_with(tmp_path, workspace, **values):
    """The workspace model with every entry of each named tensor set to a value
    ("input.W" names a gate's part)."""
    doc = read(workspace["model"])
    for name, value in values.items():
        group, _, part = name.partition(".")
        owner = doc[group] if part else doc
        key = part or group
        owner[key] = np.full(np.shape(owner[key]), value).tolist()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_featurize_with_weights_that_overflow_saturates_silently(tmp_path, workspace,
                                                                 capsys):
    # x-side gate products of 1e300 entries overflow to inf: the gates saturate
    model = _model_with(tmp_path, workspace, **{"embeddings": 1e300, "input.W": 1e300,
                                                "cell.W": 1e300})
    out = tmp_path / "features.csv"
    capsys.readouterr()
    assert main(["featurize", "--corpus", str(workspace["corpus"]), "--model", str(model),
                 "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    values = read_features_csv(out).values
    assert np.all(np.abs(values) <= 1.0)


def test_featurize_reaching_a_non_finite_state_is_one_error_line(tmp_path, workspace,
                                                                capsys):
    # every forget gate's x-side term is +inf and its h-side term -inf: nan
    model = _model_with(tmp_path, workspace, **{
        "embeddings": 1e300, "input.W": 1e300, "cell.W": 1e300, "output.W": 1e300,
        "forget.W": 1e300, "forget.U": -1e308})
    out = tmp_path / "features.csv"
    capsys.readouterr()
    assert main(["featurize", "--corpus", str(workspace["corpus"]), "--model", str(model),
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: non-finite hidden state in the tree forward pass of ")
    assert not out.exists()


def test_featurize_bow(tmp_path, workspace, capsys):
    vocab = tmp_path / "vocab.json"
    main(["vocab", "--corpus", str(workspace["corpus"]), "--output", str(vocab),
          "--min-count", "1"])
    out = tmp_path / "bow.csv"
    assert main(["featurize", "--corpus", str(workspace["corpus"]),
                 "--method", "bow", "--vocab", str(vocab),
                 "--threshold", "1", "--output", str(out)]) == 0
    features = read_features_csv(out)
    assert features.dim == len(read(vocab)["tokens"])
    assert set(np.unique(features.values)) <= {0.0, 1.0}
    assert main(["featurize", "--corpus", str(workspace["corpus"]),
                 "--method", "bow", "--output", str(out)]) == 2
    assert main(["featurize", "--corpus", str(workspace["corpus"]),
                 "--method", "tree", "--output", str(out)]) == 2
    assert main(["featurize", "--corpus", str(workspace["corpus"]),
                 "--method", "bow", "--vocab", str(vocab),
                 "--threshold", "0", "--output", str(out)]) == 2
    # without --threshold, bow binarizes at 5
    default, five = tmp_path / "default.csv", tmp_path / "five.csv"
    for path, extra in ((default, []), (five, ["--threshold", "5"])):
        assert main(["featurize", "--corpus", str(workspace["corpus"]), "--method", "bow",
                     "--vocab", str(vocab), "--output", str(path), *extra]) == 0
    assert default.read_bytes() == five.read_bytes()
    # a --vocab that the vocabulary of --model would override
    ignored = ["featurize", "--corpus", str(workspace["corpus"]), "--output", str(out),
               "--vocab", str(vocab), "--model", str(workspace["model"])]
    capsys.readouterr()
    assert main([*ignored, "--method", "tree"]) == 2
    assert "--method tree needs --model and takes no --vocab" in capsys.readouterr().err
    assert main([*ignored, "--method", "bow", "--threshold", "1"]) == 2
    assert "--method bow needs one of --model or --vocab" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, mode", [
    (["featurize", "--method", "tree", "--model", "{model}", "--threshold", "0"],
     "--threshold", "--method tree"),
    (["featurize", "--model", "{model}", "--threshold", "-3"], "--threshold", "--method tree"),
    (["featurize", "--model", "{model}", "--threshold", "5"], "--threshold", "--method tree"),
    (["train-classifier", "--features", "{features}", "--classifier", "logistic",
      "--max-depth", "3", "--n-trees", "7"], "--n-trees", "--classifier logistic"),
    (["train-classifier", "--features", "{features}", "--classifier", "logistic",
      "--features-per-split", "2"], "--features-per-split", "--classifier logistic"),
    (["train-classifier", "--features", "{features}", "--l2", "7"], "--l2", "--classifier forest"),
    (["experiment", "--descriptor", "{logistic_cv}", "--n-trees", "3"],
     "--n-trees", "the logistic classifier of {logistic_cv}"),
    (["experiment", "--descriptor", "{forest_cv}", "--l2", "1"],
     "--l2", "the forest classifier of {forest_cv}"),
    (["pretrain", "--vocab", "{vocab}", "--vocab-size", "3", "--min-count", "9"],
     "--vocab-size", "--vocab"),
    (["pretrain", "--vocab", "{vocab}", "--min-count", "9"], "--min-count", "--vocab"),
])
def test_a_flag_the_mode_ignores_is_bad_input(tmp_path, workspace, capsys, argv, flag, mode):
    paths = {"model": workspace["model"], "features": workspace["features"],
             "vocab": tmp_path / "vocab.json", "logistic_cv": tmp_path / "logistic.json",
             "forest_cv": tmp_path / "forest.json"}
    assert main(["vocab", "--corpus", str(workspace["corpus"]), "--output",
                 str(paths["vocab"])]) == 0
    for kind in ("logistic", "forest"):
        paths[f"{kind}_cv"].write_text(f'{{"experiment":"cv","k":3,"classifier":"{kind}"}}\n',
                                       encoding="utf-8")
    out = tmp_path / "out"
    given = [arg.format(**paths) for arg in argv]
    if given[0] != "train-classifier":
        given += ["--corpus", str(workspace["corpus"])]
    given += ["--output-dir" if given[0] == "experiment" else "--output", str(out)]
    capsys.readouterr()
    assert main(given) == 2
    assert f"error: {flag} has no effect with {mode.format(**paths)}" in capsys.readouterr().err
    assert not out.exists()


_CLASSIFIER_FLAG_VALUES = {"--l2": "0.5", "--n-trees": "3", "--max-depth": "2",
                           "--min-leaf": "4", "--features-per-split": "1", "--seed": "2"}


@pytest.mark.parametrize("kind, flag", [
    pytest.param("logistic", "--seed", marks=pytest.mark.xfail(strict=True, reason=(
        "logistic fits accept and ignore --seed (FOUND in CHANGES.md); rejecting it "
        "waits on cli-deep in bench/workloads.py, which passes --seed to both kinds"))),
    *((kind, flag) for kind in ("logistic", "forest") for flag in _CLASSIFIER_FLAG_VALUES
      if (kind, flag) != ("logistic", "--seed")),
])
def test_each_train_classifier_flag_is_rejected_or_changes_the_classifier(
        tmp_path, workspace, capsys, kind, flag):
    def train(*extra):
        out = tmp_path / f"clf{len(extra)}.json"
        code = main(["train-classifier", "--features", str(workspace["features"]),
                     "--output", str(out), "--classifier", kind, *extra])
        return code, out.read_bytes() if out.exists() else None

    code, without = train()
    assert code == 0
    code, with_flag = train(flag, _CLASSIFIER_FLAG_VALUES[flag])
    if code == 2:
        assert with_flag is None
        assert f"error: {flag} has no effect with --classifier {kind}" in capsys.readouterr().err
    else:
        assert code == 0 and with_flag != without


@pytest.mark.parametrize("command", ["train-classifier", "evaluate"])
def test_repeated_feature_row_is_bad_input(tmp_path, workspace, capsys, command):
    clf = tmp_path / "clf.json"
    assert main(["train-classifier", "--features", str(workspace["features"]),
                 "--output", str(clf), "--classifier", "logistic"]) == 0
    lines = workspace["features"].read_text(encoding="utf-8").splitlines()
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("\n".join([*lines, lines[5]]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = (["train-classifier", "--features", str(repeated), "--output", str(out)]
            if command == "train-classifier" else
            ["evaluate", "--features", str(repeated), "--classifier-file", str(clf),
             "--output", str(out)])
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {repeated}:{len(lines) + 1}: repeated key" in err
    assert "(first on line 6)" in err
    assert not out.exists()


def test_train_classifier_and_evaluate(tmp_path, workspace, capsys):
    clf = tmp_path / "clf.json"
    assert main(["train-classifier", "--features", str(workspace["features"]),
                 "--output", str(clf), "--classifier", "forest",
                 "--n-trees", "8", "--seed", "3"]) == 0
    assert read(clf)["kind"] == "forest"
    capsys.readouterr()
    report = tmp_path / "report.csv"
    report_json = tmp_path / "report.json"
    code = main(["evaluate", "--features", str(workspace["features"]),
                 "--classifier-file", str(clf), "--output", str(report),
                 "--json-output", str(report_json),
                 "--train-name", "demo:train", "--test-name", "demo:test"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "precision" in printed and "auc" in printed
    lines = report.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("demo:train,demo:test,")
    doc = read(report_json)
    assert doc["reports"][0]["cell_train"] == "demo:train"


def test_train_classifier_config_precedence(tmp_path, workspace):
    config = tmp_path / "clf-config.json"
    config.write_text('{"n_trees":7}\n', encoding="utf-8")
    out = tmp_path / "clf.json"
    assert main(["train-classifier", "--features", str(workspace["features"]),
                 "--output", str(out), "--classifier", "forest",
                 "--config", str(config)]) == 0
    assert read(out)["n_trees"] == 7
    assert main(["train-classifier", "--features", str(workspace["features"]),
                 "--output", str(out), "--classifier", "forest",
                 "--config", str(config), "--n-trees", "3"]) == 0
    assert read(out)["n_trees"] == 3


def test_evaluate_flagged_metrics_exit_1(tmp_path, workspace):
    clf = tmp_path / "clf.json"
    main(["train-classifier", "--features", str(workspace["features"]),
          "--output", str(clf), "--classifier", "logistic"])
    features = read_features_csv(workspace["features"])
    # strip the positives: recall and AUC become undefined on the test side
    keep = [i for i, lab in enumerate(features.labels) if lab == 0]
    import treedefect

    negatives = treedefect.FeatureMatrix([features.keys[i] for i in keep],
                                         features.values[keep],
                                         [0 for _ in keep])
    negative_csv = tmp_path / "negatives.csv"
    treedefect.write_features_csv(negative_csv, negatives)
    code = main(["evaluate", "--features", str(negative_csv),
                 "--classifier-file", str(clf),
                 "--output", str(tmp_path / "r.csv")])
    assert code == 1


def test_experiment_cv(tmp_path, workspace, capsys):
    descriptor = tmp_path / "cv.json"
    descriptor.write_text('{"experiment":"cv","k":3,"classifier":"forest"}\n',
                          encoding="utf-8")
    out_dir = tmp_path / "cv-out"
    code = main(["experiment", "--corpus", str(workspace["corpus"]),
                 "--descriptor", str(descriptor), "--output-dir", str(out_dir),
                 *FAST_TRAIN, "--max-epochs", "1", "--n-trees", "8"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "average:" in printed
    lines = (out_dir / "report.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 3 + 1  # header, three folds, average
    assert lines[1].startswith("fold0:train,fold0:test,")
    assert lines[4].startswith("cv:average,cv:average,")
    doc = read(out_dir / "report.json")
    assert len(doc["reports"]) == 3 and "average" in doc


def test_experiment_pairs_and_jobs(tmp_path, capsys):
    corpus = tmp_path / "pairs-corpus.json"
    write_corpus(corpus, generate_multi_cell({"p": ["1.0", "2.0"]},
                                             files_per_cell=10, seed=41))
    descriptor = tmp_path / "pairs.json"
    descriptor.write_text(
        '{"experiment":"version-pairs","classifier":"logistic","pairs":['
        '{"train":{"project":"p","version":"1.0"},"test":{"project":"p","version":"2.0"}},'
        '{"train":{"project":"p","version":"2.0"},"test":{"project":"p","version":"1.0"}}]}\n',
        encoding="utf-8")
    solo = tmp_path / "solo"
    code = main(["experiment", "--corpus", str(corpus),
                 "--descriptor", str(descriptor), "--output-dir", str(solo),
                 *FAST_TRAIN, "--max-epochs", "1"])
    assert code in (0, 1)
    capsys.readouterr()
    lines = (solo / "report.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3  # header and one row per pair, average only in JSON
    assert lines[1].startswith("p:1.0,p:2.0,")
    assert lines[2].startswith("p:2.0,p:1.0,")
    doc = read(solo / "report.json")
    assert doc["average"]["cell_train"] == "pairs:average"
    # the thread pool measured slower than one thread and was removed
    for removed in (["--jobs", "2"], ["--depth-limit", "50"]):
        with pytest.raises(SystemExit) as info:
            main(["experiment", "--corpus", str(corpus), "--descriptor",
                  str(descriptor), "--output-dir", str(solo), *removed])
        assert info.value.code == 2


def test_stats_command(tmp_path, workspace, capsys):
    out = tmp_path / "stats.csv"
    assert main(["stats", "--corpus", str(workspace["corpus"]),
                 "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "synthetic" in printed
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "project,versions,files,mean_files,mean_defective,pct_defective"
    assert lines[1].startswith("synthetic,1,18,")


def test_a_corpus_whose_files_are_not_a_list_is_bad_input(tmp_path, workspace, capsys):
    doc = read(workspace["corpus"])
    doc["files"] = {}
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["stats", "--corpus", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: 'files' must be a list\n"


@pytest.mark.parametrize("command", ["stats", "vocab", "featurize"])
def test_a_corpus_without_files_is_bad_input(tmp_path, workspace, capsys, command):
    doc = read(workspace["corpus"])
    doc["files"] = []
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    flags = {"stats": [], "vocab": ["--output", str(out)],
             "featurize": ["--model", str(workspace["model"]), "--output", str(out)]}
    assert main([command, "--corpus", str(bad), *flags[command]]) == 2
    assert capsys.readouterr().err == (f"error: {bad}: 'files' is empty; "
                                       "a corpus holds at least one file\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--project", "--version"])
def test_ingest_rejects_an_empty_project_or_version_before_reading(tmp_path, capsys, flag):
    out = tmp_path / "corpus.json"
    # the input does not exist: the flag is checked first
    assert main(["ingest", str(tmp_path / "absent"), "--output", str(out), flag, ""]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be a non-empty string\n"
    assert not out.exists()


def _repeat_first(text: str, key: str, value: str) -> str:
    """`text` with `"key":value,` put before the first `"key":` in it."""
    return text.replace(f'"{key}":', f'"{key}":{value},"{key}":', 1)


def test_a_repeated_key_in_a_config_file_is_bad_input(tmp_path, workspace, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"max_epochs": 0, "seed": 1, "seed": 2}', encoding="utf-8")
    out = tmp_path / "model.json"
    assert main(["pretrain", "--corpus", str(workspace["corpus"]), "--output", str(out),
                 "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}: repeated key 'seed'\n"
    assert not out.exists()


def test_a_repeated_key_in_a_corpus_entry_is_bad_input(tmp_path, workspace, capsys):
    text = workspace["corpus"].read_text(encoding="utf-8")
    bad = tmp_path / "corpus.json"
    # the first "file_id" is that of files[0]
    bad.write_text(_repeat_first(text, "file_id", '"other.mini"'), encoding="utf-8")
    assert main(["stats", "--corpus", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: repeated key 'file_id'\n"


def test_a_repeated_key_in_a_model_document_is_bad_input(tmp_path, workspace, capsys):
    text = workspace["model"].read_text(encoding="utf-8")
    bad = tmp_path / "model.json"
    # the first "b" is the bias of the cell gate group
    bad.write_text(_repeat_first(text, "b", "[0, 0, 0, 0]"), encoding="utf-8")
    out = tmp_path / "features.csv"
    assert main(["featurize", "--corpus", str(workspace["corpus"]), "--model", str(bad),
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: repeated key 'b'\n"
    assert not out.exists()


def test_missing_file_is_an_input_error(tmp_path, capsys):
    assert main(["stats", "--corpus", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, target", [
    ("stats", "nodir/x.csv"),   # missing directory
    ("vocab", "nodir/v.json"),
    ("stats", "adir"),          # an existing directory
    ("experiment", "afile"),    # an existing file as the output directory
])
def test_unwritable_output_is_an_input_error(tmp_path, workspace, capsys, command, target):
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("", encoding="utf-8")
    descriptor = tmp_path / "cv.json"
    descriptor.write_text('{"experiment":"cv","k":3,"classifier":"forest"}\n',
                          encoding="utf-8")
    out = tmp_path / target
    flag = (["--descriptor", str(descriptor), "--output-dir"] if command == "experiment"
            else ["--output"])
    assert main([command, "--corpus", str(workspace["corpus"]), *flag, str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {out}: " in err and ".tmp" not in err
    assert not list(tmp_path.rglob("*.tmp"))


def test_internal_error_exit_3(tmp_path, workspace, capsys, monkeypatch):
    import treedefect.cli

    def broken(*args):
        raise RuntimeError("simulated bug")

    # a fault inside the library, not in the input, is reported as internal
    monkeypatch.setattr(treedefect.cli, "predict_proba", broken)
    clf = tmp_path / "clf.json"
    main(["train-classifier", "--features", str(workspace["features"]),
          "--output", str(clf), "--classifier", "logistic"])
    code = main(["evaluate", "--features", str(workspace["features"]),
                 "--classifier-file", str(clf),
                 "--output", str(tmp_path / "r.csv")])
    assert code == 3
    assert "internal error" in capsys.readouterr().err


def test_logistic_without_regularization_is_deterministic(tmp_path, workspace):
    # l2 = 0 on few files: the data may be separable, so no optimum need exist
    outputs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outputs:
        assert main(["train-classifier", "--features", str(workspace["features"]),
                     "--output", str(out), "--classifier", "logistic",
                     "--l2", "0"]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()
    assert all(np.isfinite(read(outputs[0])["weights"]))


def test_failed_artifact_write_is_an_environment_error(tmp_path, workspace, capsys,
                                                       monkeypatch):
    out = tmp_path / "clf.json"
    argv = ["train-classifier", "--features", str(workspace["features"]),
            "--output", str(out), "--classifier", "logistic"]
    assert main(argv) == 0
    before = out.read_bytes()

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    capsys.readouterr()
    assert main([*argv, "--l2", "0.5"]) == 2
    assert f"error: {out}: disk full" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["clf.json"]


NARROW_CSV = "project,version,file_id,label,f0\np,1,a,1,0.5\np,1,b,0,0.1\n"


@pytest.mark.parametrize("kind", ["logistic", "forest"])
def test_evaluate_feature_dimension_mismatch_is_bad_input(tmp_path, workspace, capsys,
                                                          kind):
    clf = tmp_path / "clf.json"
    assert main(["train-classifier", "--features", str(workspace["features"]),
                 "--output", str(clf), "--classifier", kind,
                 *(["--n-trees", "4"] if kind == "forest" else [])]) == 0
    assert read(clf)["dim"] == 4
    narrow = tmp_path / "narrow.csv"
    narrow.write_text(NARROW_CSV, encoding="utf-8")
    report = tmp_path / "r.csv"
    assert main(["evaluate", "--features", str(narrow), "--classifier-file", str(clf),
                 "--output", str(report)]) == 2
    assert "1 features per row" in capsys.readouterr().err
    assert not report.exists()


def test_evaluate_malformed_inputs_are_bad_input(tmp_path, workspace):
    def evaluate(features, clf):
        return main(["evaluate", "--features", str(features), "--classifier-file",
                     str(clf), "--output", str(tmp_path / "r.csv")])

    forest = tmp_path / "forest.json"
    logistic = tmp_path / "logistic.json"
    for kind, path in (("forest", forest), ("logistic", logistic)):
        assert main(["train-classifier", "--features", str(workspace["features"]),
                     "--output", str(path), "--classifier", kind,
                     *(["--n-trees", "2"] if kind == "forest" else [])]) == 0
    doc = read(forest)
    doc["trees"][0][0] = {"f": "x", "t": 0.5}
    bad = tmp_path / "bad-forest.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert evaluate(workspace["features"], bad) == 2
    doc = read(logistic)
    doc["weights"][0] = "heavy"
    bad = tmp_path / "bad-logistic.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert evaluate(workspace["features"], bad) == 2
    lines = workspace["features"].read_text(encoding="utf-8").splitlines()
    lines[1] = ",".join(lines[1].split(",")[:-1] + ["nan"])
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert evaluate(nan_csv, logistic) == 2


def test_train_classifier_bad_options_are_bad_input(tmp_path, workspace, capsys):
    out = tmp_path / "clf.json"
    for kind, flag, value in (("forest", "--n-trees", "0"), ("logistic", "--l2", "-1"),
                              ("forest", "--min-leaf", "0"), ("logistic", "--l2", "nan")):
        assert main(["train-classifier", "--features", str(workspace["features"]),
                     "--output", str(out), "--classifier", kind, flag, value]) == 2
        assert "bad option" in capsys.readouterr().err
        assert not out.exists()


def test_ingest_left_associative_chain_deeper_than_limit(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "good.mini").write_text(GOOD_SOURCE, encoding="utf-8")
    (src / "chain.mini").write_text("x = 1" + " + 1" * 2999 + ";\n", encoding="utf-8")
    out = tmp_path / "corpus.json"
    assert main(["ingest", str(src), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count(str(src / "chain.mini")) == 1 and f"limit of {MAX_TREE_DEPTH}" in err
    assert not out.exists()
    assert main(["ingest", str(src), "--output", str(out), "--skip-bad"]) == 0
    assert [r.file_id for r in read_corpus(out)] == ["good.mini"]


def test_corpus_documents_too_deep_are_bad_input(tmp_path, capsys):
    def nested(levels):  # the retired version-1 form: one JSON object per node
        return ('{"format_version":1,"files":[{"file_id":"a","project":"p",'
                '"version":"1","label":0,"tree":'
                + '{"label":"y","children":[' * (levels - 1)
                + '{"label":"x","children":[]}' + "]}" * (levels - 1) + "}]}\n")

    def flat(nodes, arity):
        return json.dumps({"format_version": 2, "labels": ["x", "y"], "files": [
            {"file_id": "a", "project": "p", "version": "1", "label": 0,
             "nodes": nodes, "arity": arity}]})

    def chain(levels):
        return flat([1] * (levels - 1) + [0], [1] * (levels - 1) + [0])

    for name, text, message in (
            ("nested700", nested(700), "nested too deeply"),
            ("chain", chain(MAX_TREE_DEPTH + 1),
             f"files[0].nodes[0]: tree is deeper than the limit of {MAX_TREE_DEPTH}"),
            ("version1", nested(3), "format_version must be 2, got 1; re-run `ingest`"),
            ("truncated", chain(3)[:40], "invalid JSON"),
            ("malformed", flat([1, 0], [1, 1]), "files[0].arity[1]: child count")):
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        assert main(["stats", "--corpus", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count(str(path)) == 1
        out = tmp_path / "corpus.json"
        assert main(["ingest", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count(str(path)) == 1
        assert main(["ingest", str(path), "--output", str(out), "--skip-bad"]) == 2
        assert "no valid input files" in capsys.readouterr().err
    path = tmp_path / "ok.json"
    path.write_text(chain(MAX_TREE_DEPTH), encoding="utf-8")
    assert main(["stats", "--corpus", str(path)]) == 0


@pytest.mark.parametrize("command, text", [
    ("stats", b"\xff{}"),
    ("evaluate", b"\xffproject,version,file_id,label,f0\n"),
    ("train-classifier", b"project,version,file_id,label,f0\np,1,\xff,0,0.5\n"),
    ("train-classifier", b'project,version,file_id,label,f0\np,1,"' + b"a" * 200_000 + b'",0,1\n'),
    ("ingest-labels", b"file_id,label\ngood.mini,\xff\n"),
    ("ingest-labels", b'file_id,label\n"' + b"a" * 200_000 + b'",0\n'),
    ("ingest", b"int i = \xff;\n"),
], ids=["corpus-0xff", "features-0xff", "train-features-0xff", "train-features-long-field",
        "labels-0xff", "labels-long-field", "source-0xff"])
def test_unreadable_text_input_is_bad_input_naming_the_file(tmp_path, workspace, capsys,
                                                            command, text):
    bad = tmp_path / ("bad.mini" if command == "ingest" else "bad.txt")
    bad.write_bytes(text)
    src = tmp_path / "src"
    src.mkdir()
    (src / "good.mini").write_text(GOOD_SOURCE, encoding="utf-8")
    out = str(tmp_path / "out")
    argv = {"stats": ["stats", "--corpus", str(bad)],
            "evaluate": ["evaluate", "--features", str(bad), "--output", out,
                         "--classifier-file", str(workspace["model"])],
            "train-classifier": ["train-classifier", "--features", str(bad), "--output", out],
            "ingest-labels": ["ingest", str(src), "--labels", str(bad), "--output", out],
            "ingest": ["ingest", str(src), str(bad), "--output", out]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count(str(bad)) == 1 and "internal error" not in err


def test_ingest_of_a_corpus_document_rewrites_it_byte_for_byte(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    for i, text in enumerate((GOOD_SOURCE, OTHER_SOURCE, GOOD_SOURCE + OTHER_SOURCE)):
        (src / f"f{i}.mini").write_text(text, encoding="utf-8")
    labels = tmp_path / "labels.csv"
    labels.write_text("f0.mini,1\nf2.mini,0\n", encoding="utf-8")
    corpus, again = tmp_path / "corpus.json", tmp_path / "again.json"
    assert main(["ingest", str(src), "--labels", str(labels), "--output", str(corpus)]) == 0
    assert main(["ingest", str(corpus), "--output", str(again)]) == 0
    assert again.read_bytes() == corpus.read_bytes()
    doc = read(corpus)
    assert doc["format_version"] == 2 and doc["labels"] == sorted(set(doc["labels"]))


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_module_entry_point_help():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "treedefect.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "ingest" in proc.stdout and "experiment" in proc.stdout


def test_bad_split_is_bad_input(tmp_path, workspace, capsys):
    out = tmp_path / "model.json"
    for split in ("0.8,0.2", "a,b,c"):
        assert main(["pretrain", "--corpus", str(workspace["corpus"]),
                     "--output", str(out), *FAST_TRAIN, "--split", split]) == 2
        err = capsys.readouterr().err
        assert "bad option" in err and "split" in err
        assert not out.exists()


def _config(tmp_path, name, doc):
    path = tmp_path / f"{name}-config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_split_flag_and_config_forms_give_the_library_model(tmp_path, workspace):
    train = dict(embedding_dim=4, hidden_dim=4, max_epochs=1, min_count=1,
                 batch_size=8, seed=11)
    result = pretrain(read_corpus(workspace["corpus"]),
                      TrainConfig(**train, split=(0.7, 0.2, 0.1)))
    expected = tmp_path / "expected.json"
    save_model(expected, result.model, result.head.U)
    flag = tmp_path / "flag.json"
    assert main(["pretrain", "--corpus", str(workspace["corpus"]), "--output", str(flag),
                 "--config", str(_config(tmp_path, "plain", train)),
                 "--split", "0.7,0.2,0.1"]) == 0
    outputs = [flag]
    for name, split in (("list", [0.7, 0.2, 0.1]), ("string", "0.7,0.2,0.1")):
        out = tmp_path / f"{name}.json"
        config = _config(tmp_path, name, {**train, "split": split})
        assert main(["pretrain", "--corpus", str(workspace["corpus"]), "--output", str(out),
                     "--config", str(config)]) == 0
        outputs.append(out)
    for out in outputs:
        assert out.read_bytes() == expected.read_bytes()


def test_header_only_feature_file_is_bad_input(tmp_path, workspace, capsys):
    clf = tmp_path / "clf.json"
    assert main(["train-classifier", "--features", str(workspace["features"]),
                 "--output", str(clf), "--classifier", "logistic"]) == 0
    header = workspace["features"].read_text(encoding="utf-8").splitlines()[0]
    empty = tmp_path / "empty.csv"
    empty.write_text(header + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--features", str(empty), "--classifier-file", str(clf),
                 "--output", str(tmp_path / "r.csv")]) == 2
    assert f"error: {empty}: feature file has no rows" in capsys.readouterr().err
    out = tmp_path / "clf2.json"
    assert main(["train-classifier", "--features", str(empty), "--output", str(out)]) == 2
    assert f"error: {empty}: feature file has no rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["forest", "logistic"])
def test_feature_file_without_feature_columns_is_bad_input(tmp_path, capsys, kind):
    keys_only = tmp_path / "keys-only.csv"
    keys_only.write_text("project,version,file_id,label\n"
                         + "".join(f"p,1,f{i},{i % 2}\n" for i in range(4)), encoding="utf-8")
    out = tmp_path / "clf.json"
    assert main(["train-classifier", "--features", str(keys_only), "--output", str(out),
                 "--classifier", kind]) == 2
    assert f"error: {keys_only}: feature file has no feature columns" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_rejects_a_repeated_label_entry(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "f000.mini").write_text(GOOD_SOURCE, encoding="utf-8")
    labels = tmp_path / "labels.csv"
    labels.write_text("file_id,label\nf000.mini,0\nf000.mini,1\n", encoding="utf-8")
    out = tmp_path / "corpus.json"
    assert main(["ingest", str(src), "--output", str(out), "--labels", str(labels)]) == 2
    assert f"{labels}:3: repeated file_id 'f000.mini'" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_rejects_a_label_entry_naming_no_source(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    for i in range(40):
        (src / f"f{i:03d}.mini").write_text(GOOD_SOURCE, encoding="utf-8")
    (src / "bad.mini").write_text(BAD_SOURCE, encoding="utf-8")
    labels = tmp_path / "labels.csv"
    labels.write_text("file_id,label\nf000.mini,1\nmissing.mini,0\n", encoding="utf-8")
    out = tmp_path / "corpus.json"
    assert main(["ingest", str(src), "--output", str(out), "--labels", str(labels),
                 "--skip-bad"]) == 2
    assert f"{labels}:3: no input source file 'missing.mini'" in capsys.readouterr().err
    assert not out.exists()
    # an entry for a source that --skip-bad skips still names an input source
    labels.write_text("file_id,label\nf000.mini,1\nbad.mini,0\n", encoding="utf-8")
    assert main(["ingest", str(src), "--output", str(out), "--labels", str(labels),
                 "--skip-bad"]) == 0
    assert [r.label for r in read_corpus(out)] == [1] + [None] * 39


def _set(*path_and_value):
    """An edit of a JSON document: set the value at a path of keys and indices."""
    *parents, key, value = path_and_value

    def edit(doc):
        for step in parents:
            doc = doc[step]
        doc[key] = value
    return edit


# Each input is bad, and each was read as good before every reader checked its
# objects, versions, keys and numbers through jsonio.
@pytest.mark.parametrize("artifact, edit, message", [
    ("model", _set("format_version", True), ": format_version must be 1, got True"),
    ("model", _set("extra", 1), ": unknown field 'extra'"),
    ("model", _set("forget", "V", [[0.0]]), ".forget: unknown field 'V'"),
    ("model", _set("embeddings", 0, 0, True), ": field 'embeddings' contains non-finite or"),
    ("logistic", _set("extra", 1), ": unknown field 'extra'"),
    ("forest", _set("trees", 0, 0, "x", 1), ".trees[0]: unknown field 'x'"),
    ("vocabulary", _set("format_version", True), ": format_version must be 1, got True"),
    ("vocabulary", _set("extra", 1), ": unknown field 'extra'"),
    ("corpus", _set("format_version", 2.0), ": format_version must be 2, got 2.0"),
    ("corpus", _set("files", 0, "label", 1.0), ": files[0]: 'label' must be 0, 1 or null"),
], ids=["model-version-true", "model-unknown-key", "model-gate-group-unknown-key",
        "model-weight-true", "classifier-unknown-key", "classifier-tree-node-unknown-key",
        "vocabulary-version-true", "vocabulary-extra-key", "corpus-version-2.0",
        "corpus-label-1.0"])
def test_newly_rejected_documents_are_bad_input(tmp_path, workspace, capsys, artifact, edit,
                                                message):
    good = tmp_path / f"{artifact}.json"
    out = tmp_path / "out.csv"
    if artifact in ("logistic", "forest"):
        assert main(["train-classifier", "--features", str(workspace["features"]),
                     "--output", str(good), "--classifier", artifact,
                     *(["--n-trees", "2"] if artifact == "forest" else [])]) == 0
    elif artifact == "vocabulary":
        assert main(["vocab", "--corpus", str(workspace["corpus"]), "--output", str(good)]) == 0
    else:
        good = workspace[artifact]
    doc = read(good)
    edit(doc)
    bad = tmp_path / f"bad-{artifact}.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    argv = {"model": ["featurize", "--corpus", str(workspace["corpus"]), "--model", str(bad)],
            "logistic": ["evaluate", "--features", str(workspace["features"]),
                         "--classifier-file", str(bad)],
            "vocabulary": ["featurize", "--corpus", str(workspace["corpus"]), "--method", "bow",
                           "--vocab", str(bad)],
            "corpus": ["stats", "--corpus", str(bad)]}
    argv["forest"] = argv["logistic"]
    capsys.readouterr()
    assert main([*argv[artifact], "--output", str(out)]) == 2
    assert f"error: {bad}{message}" in capsys.readouterr().err
    assert not out.exists()


def test_config_that_is_not_an_object_is_bad_input(tmp_path, workspace, capsys):
    config = _config(tmp_path, "list", [1])
    assert main(["pretrain", "--corpus", str(workspace["corpus"]), "--config", str(config),
                 "--output", str(tmp_path / "m.json")]) == 2
    assert f"error: {config}: config must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["a.mini", "a.mini,1,0", "a.mini,yes", "a.mini,1.0"])
def test_a_labels_row_that_is_not_file_id_label_is_bad_input(tmp_path, capsys, row):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.mini").write_text(GOOD_SOURCE, encoding="utf-8")
    labels = tmp_path / "labels.csv"
    labels.write_text(f"file_id,label\n{row}\n", encoding="utf-8")
    out = tmp_path / "corpus.json"
    assert main(["ingest", str(src), "--output", str(out), "--labels", str(labels)]) == 2
    assert (f"{labels}:2: expected 'file_id,label' with label 0 or 1"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[]", "vocabulary file must be an object"),
    ('{"format_version": 2, "tokens": ["<unk>"]}', "format_version must be 1, got 2"),
    ('{"format_version": 1}', "'tokens' must be a list of strings"),
    ('{"format_version": 1, "tokens": ["<unk>", 3]}', "'tokens' must be a list of strings"),
    ('{"format_version": 1, "tokens": ["a", "<unk>"]}', "<unk>"),
    ("{", "invalid JSON"),
])
def test_a_malformed_vocabulary_file_is_bad_input(tmp_path, workspace, capsys, text, message):
    vocab = tmp_path / "vocab.json"
    vocab.write_text(text, encoding="utf-8")
    model = tmp_path / "model.json"
    assert main(["pretrain", "--corpus", str(workspace["corpus"]), "--vocab", str(vocab),
                 "--output", str(model), "--embedding-dim", "4", "--hidden-dim", "4",
                 "--max-epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert f"error: {vocab}: " in err and message in err
    assert not model.exists()


@pytest.mark.parametrize("tokens", [[], ["a"], ["<unk>", 3], ["<unk>", "<unk>"], "x", None],
                         ids=["empty", "no-unk", "number", "repeated", "string", "null"])
def test_vocabulary_files_and_model_documents_share_one_token_list_rule(
        tmp_path, workspace, capsys, tokens):
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps({"format_version": 1, "tokens": tokens}), encoding="utf-8")
    model_doc = read(workspace["model"])
    model_doc["vocab"] = tokens
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_doc), encoding="utf-8")
    out = tmp_path / "features.csv"
    rules = []
    for flags, where in ((["--method", "bow", "--vocab", str(vocab)], f"{vocab}: 'tokens'"),
                         (["--model", str(model)], f"{model}: 'vocab'")):
        assert main(["featurize", "--corpus", str(workspace["corpus"]), *flags,
                     "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}")
        rules.append(err.replace(where, "<token list>"))
    assert rules[0] == rules[1]
    assert not out.exists()


def test_the_command_path_makes_no_tree_nodes(tmp_path):
    # what ingest, vocab, pretrain, featurize and a corpus rewrite do to trees
    # reads only the shape the builder keeps at each root: no node objects
    made = [normalize_labels(parse_mini(GOOD_SOURCE))]
    corpus = tmp_path / "corpus.json"
    write_corpus(corpus, generate_records(24, seed=5))
    records = read_corpus(corpus)
    vocab = build_vocabulary([r.tree for r in records], min_count=1)
    flats = [flatten(r.tree, vocab, r.file_id) for r in records]
    assert sum(f.n for f in flats) > 10 * len(records)
    config = TrainConfig(embedding_dim=4, hidden_dim=4, max_epochs=1, batch_size=8,
                         min_count=1, seed=5)
    result = pretrain(records, config)
    featurize_corpus(records, result.model)
    bow_featurize(records, vocab, 1)
    copy = tmp_path / "copy.json"
    write_corpus(copy, records)
    assert copy.read_bytes() == corpus.read_bytes()
    assert [r.file_id for r in records if "children" in vars(r.tree)] == []
    assert ["children" in vars(tree) for tree in made] == [False]
