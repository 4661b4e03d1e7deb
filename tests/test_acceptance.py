"""Release acceptance suite: nine numbered end-to-end checks.

Each test prints one "criterion N: PASS/FAIL" line with the measured margin
(run pytest with -s or -rA to see them all) and asserts the same condition,
so a failing criterion is visible both ways.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from treedefect import (AstTree, ClassifierOptions, FileRecord,
                        TrainConfig, auc, cv_feature_folds,
                        cv_from_folds, dataset_stats, evaluate_predictions,
                        featurize_corpus, flatten, generate_multi_cell,
                        generate_records, init_head, init_model,
                        normalize_labels,
                        parse_descriptor, parse_mini, pretrain,
                        save_model, stratified_k_fold,
                        version_pair_run, write_features_csv,
                        write_report_csv, write_report_json)
from treedefect.pretrain import PretrainHead, corpus_loss, perplexity
from treedefect import jsonio

from conftest import loss_and_gradients, random_tree, root_state, small_vocab

LAYOUTS = Path(__file__).resolve().parent.parent / "layouts"

# frozen end-to-end settings, shared by criteria 6 and 8
CORPUS_SEED = 97
PIPELINE_CONFIG = TrainConfig(embedding_dim=16, hidden_dim=16, max_epochs=8,
                              patience=8, batch_size=16, min_count=1,
                              dropout_rate=0.5, seed=20260814)
PIPELINE_FILES = ("model.json", "features.csv",
                  "report_forest.csv", "report_forest.json",
                  "report_logistic.csv", "report_logistic.json")


def _verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _scaled_model_and_head(seed: int, d: int = 3, hidden: int = 3,
                           vocab_size: int = 6):
    """Random parameters drawn wide enough that gates leave their flat
    region; fresh-init scales make finite differences all but vanish."""
    model = init_model(small_vocab(vocab_size), d=d, hidden_dim=hidden, seed=seed)
    head = init_head(vocab_size, hidden, seed=seed)
    rng = np.random.default_rng(seed + 99991)
    for arr in model.params.values():
        arr[...] = rng.uniform(-0.8, 0.8, size=arr.shape)
    head.U[...] = rng.uniform(-0.8, 0.8, size=head.U.shape)
    return model, head


def _permuted(tree: AstTree, rng) -> AstTree:
    children = tuple(_permuted(c, rng) for c in tree.children)
    order = rng.permutation(len(children))
    return AstTree(tree.label, tuple(children[i] for i in order))


def _run_pipeline(out_dir: Path):
    records = generate_records(n=400, defect_rate=0.5, seed=CORPUS_SEED)
    full = pretrain(records, PIPELINE_CONFIG)
    save_model(out_dir / "model.json", full.model, full.head.U)
    write_features_csv(out_dir / "features.csv",
                       featurize_corpus(records, full.model))
    folds = cv_feature_folds(records, k=10, config=PIPELINE_CONFIG)
    results = {}
    for kind in ("forest", "logistic"):
        res = cv_from_folds(folds, ClassifierOptions(kind=kind))
        write_report_csv(out_dir / f"report_{kind}.csv", [*res.folds, res.average])
        write_report_json(out_dir / f"report_{kind}.json", res.folds, res.average)
        results[kind] = res
    return full, results


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline-a")
    start = time.monotonic()
    full, results = _run_pipeline(out)
    elapsed = time.monotonic() - start
    return {"dir": out, "full": full, "results": results, "elapsed": elapsed}


def test_criterion_1_gradient_check():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for k in range(20):
        tree = random_tree(rng, vocab_size=6, max_nodes=8, min_nodes=2)
        while not tree.children:  # loss needs at least one internal node
            tree = random_tree(rng, vocab_size=6, max_nodes=8, min_nodes=2)
        model, head = _scaled_model_and_head(seed=k)
        flats = [flatten(tree, model.vocab)]
        _, grads = loss_and_gradients(flats, model, head)
        tensors = dict(model.params)
        tensors["head.U"] = head.U
        for name, arr in tensors.items():
            analytic = grads[name]
            for idx in np.ndindex(arr.shape):
                keep = arr[idx]
                arr[idx] = keep + 1e-5
                up = corpus_loss(flats, model, head)
                arr[idx] = keep - 1e-5
                down = corpus_loss(flats, model, head)
                arr[idx] = keep
                fd = (up - down) / 2e-5
                rel = abs(fd - analytic[idx]) / max(abs(fd), abs(analytic[idx]),
                                                    1e-8)
                worst = max(worst, rel)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 10.0
    assert _verdict(1, ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_forward_oracle():
    rng = np.random.default_rng(202)
    model, _ = _scaled_model_and_head(seed=31, d=4, hidden=3, vocab_size=6)
    worst = 0.0
    for _ in range(100):
        tree = random_tree(rng, vocab_size=6, max_nodes=15)
        state = root_state(tree, model)
        h_ref, c_ref = oracles.node_state(tree, model)
        worst = max(worst, float(np.abs(state.h - h_ref).max()),
                    float(np.abs(state.c - c_ref).max()))
    ok = worst <= 1e-12
    assert _verdict(2, ok, f"100 trees, worst component err {worst:.2e}")


def test_criterion_3_analytic_anchors():
    rng = np.random.default_rng(303)
    zero = init_model(small_vocab(6), d=3, hidden_dim=3, seed=0)
    for arr in zero.params.values():
        arr[...] = 0.0
    h_max = 0.0
    trees = []
    for _ in range(10):
        tree = random_tree(rng, vocab_size=6, max_nodes=12, min_nodes=2)
        trees.append(tree)
        h_max = max(h_max, float(np.abs(root_state(tree, zero).h).max()))
    model, _ = _scaled_model_and_head(seed=43)
    uniform = PretrainHead(np.zeros((6, 3)))
    flats = [flatten(t, model.vocab) for t in trees]
    loss_err = abs(corpus_loss(flats, model, uniform) - math.log(6))
    perp_err = abs(perplexity(model, uniform, flats) - 6.0)
    ok = h_max == 0.0 and loss_err <= 1e-12 and perp_err <= 1e-12
    assert _verdict(3, ok, f"|h|max {h_max}, loss err {loss_err:.2e}, "
                           f"perplexity err {perp_err:.2e}")


def test_criterion_4_child_permutation_invariance():
    rng = np.random.default_rng(404)
    model, _ = _scaled_model_and_head(seed=57, d=3, hidden=3)
    worst = 0.0
    for _ in range(200):
        tree = random_tree(rng, vocab_size=6, max_nodes=14)
        shuffled = _permuted(tree, rng)
        a = root_state(tree, model)
        b = root_state(shuffled, model)
        worst = max(worst, float(np.abs(a.h - b.h).max()),
                    float(np.abs(a.c - b.c).max()))
    ok = worst <= 1e-12
    assert _verdict(4, ok, f"200 pairs, worst root gap {worst:.2e}")


def test_criterion_5_metric_oracles():
    cases = 0
    prf_ok = True
    for total in range(2, 13):
        for tp in range(total + 1):
            for fp in range(total - tp + 1):
                for fn in range(total - tp - fp + 1):
                    tn = total - tp - fp - fn
                    if tp + fn == 0 or fp + tn == 0:
                        continue  # need both classes in the labels
                    preds = [1] * tp + [1] * fp + [0] * fn + [0] * tn
                    labels = [1] * tp + [0] * fp + [1] * fn + [0] * tn
                    report = evaluate_predictions(preds, labels, ("train", "test"))
                    m = report.matrix
                    pr, re, f = oracles.prf(preds, labels)
                    prf_ok &= (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
                    prf_ok &= abs(report.precision - pr) <= 1e-12
                    prf_ok &= abs(report.recall - re) <= 1e-12
                    prf_ok &= abs(report.f_measure - f) <= 1e-12
                    cases += 1
    rng = np.random.default_rng(505)
    auc_err = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 6, size=n) / 5.0  # coarse grid forces ties
        auc_err = max(auc_err, abs(auc(scores, labels)
                                   - oracles.auc_pairs(scores, labels)))
    trials = []
    for _ in range(1000):
        labels = rng.integers(0, 2, size=50)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        trials.append(auc(rng.random(50), labels))
    mean_auc = float(np.mean(trials))
    ok = prf_ok and auc_err <= 1e-12 and abs(mean_auc - 0.5) <= 0.02
    assert _verdict(5, ok, f"{cases} P/R/F layouts, auc err {auc_err:.2e}, "
                           f"random-auc mean {mean_auc:.4f}")


def test_criterion_6_synthetic_end_to_end(pipeline):
    full = pipeline["full"]
    vocab_size = len(full.model.vocab)
    metrics = {kind: (res.average.auc, res.average.f_measure)
               for kind, res in pipeline["results"].items()}
    bars_ok = all(a >= 0.90 and f >= 0.80 for a, f in metrics.values())
    perp_ok = full.val_perplexity is not None and full.val_perplexity < vocab_size
    time_ok = pipeline["elapsed"] < 300.0
    detail = ", ".join(f"{kind} auc {a:.3f} f {f:.3f}"
                       for kind, (a, f) in sorted(metrics.items()))
    ok = bars_ok and perp_ok and time_ok
    assert _verdict(6, ok, f"{detail}, val perplexity "
                           f"{full.val_perplexity:.2f} < |V|={vocab_size}, "
                           f"{pipeline['elapsed']:.0f}s")


def test_criterion_7_protocol_fidelity():
    balance_ok = True
    for n0, n1, k in ((37, 23, 10), (50, 50, 10), (11, 7, 5), (97, 13, 10)):
        tree = normalize_labels(parse_mini("int a = 0;"))
        records = [FileRecord(f"f{i}.mini", "p", "1", 1 if i < n1 else 0, tree)
                   for i in range(n0 + n1)]
        for fold in stratified_k_fold(records, k, seed=5):
            for cls, total in ((0, n0), (1, n1)):
                got = sum(1 for i in fold if records[i].label == cls)
                balance_ok &= got in (total // k, total // k + (total % k > 0))
    config = TrainConfig(embedding_dim=4, hidden_dim=4, max_epochs=0,
                         batch_size=4, min_count=1, seed=9)
    row_counts = {}
    cells_ok = True
    for name, expected in (("within_project_pairs", 16),
                           ("cross_project_pairs", 22)):
        descriptor = parse_descriptor(jsonio.read(LAYOUTS / f"{name}.json"))
        cells: dict[str, set[str]] = {}
        for train, test in descriptor.pairs:
            cells.setdefault(train[0], set()).add(train[1])
            cells.setdefault(test[0], set()).add(test[1])
        corpus = generate_multi_cell({p: sorted(v) for p, v in cells.items()},
                                     files_per_cell=10, seed=7)
        options = ClassifierOptions(kind=descriptor.classifier)
        reports = [version_pair_run(train, test, corpus, options, config)
                   for train, test in descriptor.pairs]
        row_counts[name] = len(reports)
        cells_ok &= len(reports) == expected
        cells_ok &= all(r.cell == (f"{tr[0]}:{tr[1]}", f"{te[0]}:{te[1]}")
                        for r, (tr, te) in zip(reports, descriptor.pairs))
    ok = balance_ok and cells_ok
    assert _verdict(7, ok, f"folds balanced within 1, "
                           f"{row_counts['within_project_pairs']} within-project "
                           f"and {row_counts['cross_project_pairs']} "
                           f"cross-project rows")


def test_criterion_8_determinism(pipeline, tmp_path):
    _run_pipeline(tmp_path)
    mismatches = [name for name in PIPELINE_FILES
                  if (pipeline["dir"] / name).read_bytes()
                  != (tmp_path / name).read_bytes()]
    ok = not mismatches
    assert _verdict(8, ok, "byte-identical rerun of "
                           f"{len(PIPELINE_FILES)} files"
                    if ok else f"mismatch: {', '.join(mismatches)}")


def test_criterion_9_table_fidelity():
    tree = normalize_labels(parse_mini("int a = 0;"))
    layout = (("2.0", 230, 80), ("2.2", 250, 178), ("2.4", 270, 177))
    records = []
    for version, total, defective in layout:
        for i in range(total):
            records.append(FileRecord(f"{version}-f{i:03d}.mini", "lucene",
                                      version, 1 if i < defective else 0, tree))
    stats = dataset_stats(records)
    row = stats[0]
    ok = (len(stats) == 1 and row.project == "lucene" and row.versions == 3
          and row.files == 750 and row.mean_files == 250
          and row.mean_defective == 145 and row.pct_defective == 57.18)
    assert _verdict(9, ok, f"{row.versions} versions, {row.files} files, "
                           f"mean defective {row.mean_defective}, "
                           f"{row.pct_defective}% defective")
