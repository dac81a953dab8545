"""Every seeded library entry point rejects a seed that is not a
nonnegative integer with a ConfigError naming the parameter, before it
reaches numpy's generator (which raises a bare ValueError or TypeError)."""

import numpy as np
import pytest

from seqvec.classify import (
    binary_family_protocol,
    binary_family_protocols,
    multiclass_protocol,
    one_vs_rest,
    train_linear_svm,
)
from seqvec.embedding import TrainConfig, infer_docs, init_model, loss_estimate
from seqvec.errors import ConfigError
from seqvec.knn import VectorIndex, knn_cross_validate
from seqvec.synthetic import markov_family_corpus, motif_order_corpus
from seqvec.tokenizer import TokenizedDoc, build_vocabulary

PER_FAMILY = 10


def _model():
    vocab = build_vocabulary({f"km{i}": 3 + i for i in range(6)})
    return init_model(vocab, 1, TrainConfig(dim=4, epochs=1), doc_ids=["s0"])


def _labeled():
    """Two separable families of PER_FAMILY 2-d vectors."""
    rng = np.random.default_rng(0)
    ids = [f"{fam}{i}" for fam in "AB" for i in range(PER_FAMILY)]
    labels = {rid: rid[0] for rid in ids}
    vectors = {rid: rng.normal(size=2) + (5.0 if rid[0] == "A" else -5.0) for rid in ids}
    return vectors, labels


def _index():
    vectors, labels = _labeled()
    ids = list(vectors)
    return VectorIndex(np.stack([vectors[i] for i in ids]), ids, [labels[i] for i in ids])


def _xy():
    vectors, labels = _labeled()
    return np.stack(list(vectors.values())), list(labels.values())


DOCS = [TokenizedDoc(0, 0, np.arange(6, dtype=np.int32))]

# (entry point, parameter name, call with that parameter's value)
ENTRY_POINTS = [
    ("infer_docs", "seed", lambda v: infer_docs(_model(), [[0, 1, 2]], 1, seed=v)),
    ("loss_estimate", "probe_seed", lambda v: loss_estimate(_model(), DOCS, probe_seed=v)),
    ("knn_cross_validate", "seed", lambda v: knn_cross_validate(_index(), [1], 2, seed=v)),
    ("multiclass_protocol", "seed",
     lambda v: multiclass_protocol(*_labeled(), top_n_families=2, folds=2, seed=v)),
    ("binary_family_protocol", "seed",
     lambda v: binary_family_protocol(*_labeled(), "A", folds=2, seed=v)),
    ("binary_family_protocols", "seed",
     lambda v: binary_family_protocols(*_labeled(), ["A", "B"], folds=2, seed=v)),
    ("train_linear_svm", "seed",
     lambda v: train_linear_svm(_xy()[0], [1] * PER_FAMILY + [-1] * PER_FAMILY, seed=v)),
    ("one_vs_rest", "seed", lambda v: one_vs_rest(*_xy(), seed=v)),
    ("markov_family_corpus", "seed", lambda v: markov_family_corpus(2, 2, 10, seed=v)),
    ("motif_order_corpus", "seed", lambda v: motif_order_corpus(2, seed=v)),
    ("TrainConfig", "seed", lambda v: TrainConfig(seed=v)),
]


@pytest.mark.parametrize("param, call", [(p, c) for _, p, c in ENTRY_POINTS],
                         ids=[name for name, _, _ in ENTRY_POINTS])
@pytest.mark.parametrize("value, message", [
    (-1, "must be >= 0, got -1"),
    (np.int64(-3), "must be >= 0, got -3"),
    (1.5, "must be an integer, got 1.5"),
], ids=["negative", "negative-numpy", "float"])
def test_bad_seed_is_a_config_error_naming_it(param, call, value, message):
    call(0)  # the other arguments are valid
    with pytest.raises(ConfigError, match=f"^{param} {message}$"):
        call(value)

