"""seqvec: fixed-dimension vector embeddings of whole biological sequences.

Sequences are tokenized into kmer documents (overlapping or phase-shifted
non-overlapping), embedded by paragraph-vector SGD training, and evaluated
via kNN majority vote, linear-SVM protocols, and a Smith-Waterman
retrieval baseline.
"""

from .align import (
    AlignParams,
    BLOSUM62,
    align_classify,
    align_topk,
    blosum62_params,
    load_substitution_matrix,
    smith_waterman,
)
from .classify import (
    ConfusionCounts,
    MetricsReport,
    MetricSummary,
    MetricValues,
    OneVsRestModel,
    SvmModel,
    binary_family_protocol,
    binary_family_protocols,
    metrics_from_counts,
    multiclass_protocol,
    one_vs_rest,
    stratified_folds,
    train_linear_svm,
)
from .embedding import (
    EmbeddingModel,
    TrainConfig,
    infer_docs,
    init_model,
    loss_estimate,
    objective_gradient,
    train,
)
from .errors import ConfigError, DataError, SeqvecError
from .knn import NeighborResult, VectorIndex, knn_cross_validate, majority_vote, neighbors
from .model_io import load_model, read_vectors, save_model, write_vectors
from .sequences import (
    DNA,
    PROTEIN,
    Alphabet,
    SequenceRecord,
    family_histogram,
    load_family_labels,
    parse_fasta,
    write_fasta,
)
from .synthetic import markov_family_corpus
from .tokenizer import (
    Corpus,
    TokenizedDoc,
    TokenizerConfig,
    Vocabulary,
    build_corpus,
    build_huffman,
    kmers_nonoverlapping,
    kmers_overlapping,
    read_corpus,
    subsample_filter,
    write_corpus,
)

__version__ = "0.1.0"
