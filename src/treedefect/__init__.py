"""Tree-LSTM representations of source file ASTs for defect prediction.

The pipeline: parse or load ASTs into a corpus, build a vocabulary, pretrain
a Child-Sum Tree-LSTM by predicting parent labels from children, use root
hidden vectors as file features, then train and evaluate defect classifiers
under within-project and cross-project protocols.
"""

from .classifiers import (ClassifierOptions, FeatureMatrix, ForestModel, LogisticModel,
                          bow_featurize, classifier_from_document,
                          classifier_to_document, featurize_corpus,
                          load_classifier, predict_proba, read_features_csv,
                          save_classifier, train_forest, train_logistic,
                          write_features_csv)
from .corpus import (AstTree, FileRecord, UNK_TOKEN, Vocabulary, build_vocabulary,
                     cell, encode, normalize_label, normalize_labels, preorder,
                     read_corpus, write_corpus)
from .errors import (CorpusError, DepthLimitError, DivergenceError, DocumentError,
                     MiniSyntaxError, TrainingDataError, TreeDefectError)
from .evaluation import (ConfusionMatrix, MetricsReport, auc, evaluate_predictions,
                         report_from_json, stratified_k_fold, write_report_csv,
                         write_report_json)
from .experiments import (CvDescriptor, CvResult,
                          FoldFeatures, PairsDescriptor, ProjectStats,
                          average_report, cv_feature_folds, cv_from_folds,
                          dataset_stats, format_stats_table, parse_descriptor,
                          train_classifier, version_pair_run)
from .minilang import parse_mini
from .pretrain import (EpochStats, PretrainHead, PretrainResult, TrainConfig,
                       corpus_loss, init_head, perplexity, pretrain,
                       rmsprop_step, split_records, write_training_log)
from .rng import derive_seed, stream
from .synthetic import generate_multi_cell, generate_records, generate_source
from .treelstm import (DropoutMasks, FlatTree, TreeLstmModel, backward, flatten,
                       forward, forward_root, init_model, load_model,
                       model_from_document, model_to_document, pack, sample_masks,
                       save_model, sigmoid)

__version__ = "0.1.0"
