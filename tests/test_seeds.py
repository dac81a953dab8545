"""Every integer setting of the library goes through one check.

Every seeded entry point rejects a seed that is not a nonnegative integer
with a ConfigError naming the parameter, before it reaches numpy's
generator (which raises a bare ValueError or TypeError). Every other
integer setting rejects a float, a bool, a value below its minimum and one
above its maximum with a ConfigError in one of three forms: ``<name> must
be an integer, got …``, ``<name> must be >= <min>, got …`` and ``<name>
must be at most <max>, got …``. Each configuration that constructs saves
and loads unchanged."""

import io
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqvec.align import AlignParams, BLOSUM62, align_topk
from seqvec.classify import (
    binary_eligible_families,
    binary_family_protocol,
    binary_family_protocols,
    multiclass_protocol,
    one_vs_rest,
    stratified_folds,
    train_linear_svm,
)
from seqvec.cli import main
from seqvec.embedding import (
    MAX_NEGATIVE,
    TrainConfig,
    infer_docs,
    init_model,
    loss_estimate,
)
from seqvec.errors import ConfigError
from seqvec.knn import VectorIndex, knn_cross_validate, neighbors
from seqvec.model_io import load_model, save_model
from seqvec.sequences import SequenceRecord, write_fasta
from seqvec.synthetic import markov_family_corpus, motif_order_corpus
from seqvec.tokenizer import (
    MAX_K,
    TokenizedDoc,
    TokenizerConfig,
    build_corpus,
    build_vocabulary,
    kmers_nonoverlapping,
    kmers_overlapping,
)

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
    (True, "must be an integer, got True"),
], ids=["negative", "negative-numpy", "float", "bool"])
def test_bad_seed_is_a_config_error_naming_it(param, call, value, message):
    call(0)  # the other arguments are valid
    with pytest.raises(ConfigError, match=f"^{param} {message}$"):
        call(value)


U32, U64 = 2**32 - 1, 2**64 - 1
RECORDS = [SequenceRecord(f"s{i}", "", "ACDEFGHIKL"[i:] + "MNPQ") for i in range(3)]

# (entry point, setting name, call with that setting's value, a value the
# call accepts, the least value allowed, the largest or None)
SETTINGS = [
    ("TrainConfig", "dim", lambda v: TrainConfig(dim=v), 4, 1, U32),
    ("TrainConfig", "window", lambda v: TrainConfig(window=v), 5, 1, U32),
    ("TrainConfig-ns", "negative sample count", lambda v: TrainConfig(negative=v),
     5, 1, MAX_NEGATIVE),
    ("TrainConfig-hs", "negative sample count",
     lambda v: TrainConfig(objective="hs", negative=v), 0, 0, MAX_NEGATIVE),
    ("TrainConfig", "epochs", lambda v: TrainConfig(epochs=v), 2, 1, U32),
    ("init_model", "n_docs",
     lambda v: init_model(build_vocabulary({"km0": 2}), v, TrainConfig(dim=4)), 1, 0, None),
    ("TokenizerConfig", "kmer length", lambda v: TokenizerConfig(v), 3, 1, MAX_K),
    ("kmers_overlapping", "kmer length", lambda v: kmers_overlapping("ACDEFG", v),
     3, 1, None),
    ("kmers_nonoverlapping", "kmer length", lambda v: kmers_nonoverlapping("ACDEFG", v),
     3, 1, None),
    ("build_vocabulary", "min_count", lambda v: build_vocabulary({"km0": 2}, v),
     1, 1, None),
    ("build_corpus", "min_count", lambda v: build_corpus(RECORDS, TokenizerConfig(3), v),
     1, 1, None),
    ("stratified_folds", "folds",
     lambda v: stratified_folds(list("ABABAB"), v, np.random.default_rng(0)), 2, 2, None),
    ("multiclass_protocol", "top_n_families",
     lambda v: multiclass_protocol(*_labeled(), top_n_families=v, folds=2), 2, 1, None),
    ("multiclass_protocol", "folds",
     lambda v: multiclass_protocol(*_labeled(), top_n_families=2, folds=v), 2, 2, None),
    ("binary_eligible_families", "top_n_families",
     lambda v: binary_eligible_families(*_labeled(), top_n_families=v), 1, 1, None),
    ("binary_eligible_families", "folds",
     lambda v: binary_eligible_families(*_labeled(), folds=v), 2, 2, None),
    ("binary_family_protocol", "folds",
     lambda v: binary_family_protocol(*_labeled(), "A", folds=v), 2, 2, None),
    ("binary_family_protocols", "folds",
     lambda v: binary_family_protocols(*_labeled(), ["A", "B"], folds=v), 2, 2, None),
    ("neighbors", "k", lambda v: neighbors(_index(), np.zeros(2), v), 1, 1, None),
    ("knn_cross_validate", "folds", lambda v: knn_cross_validate(_index(), [1], v),
     2, 2, None),
    ("knn_cross_validate-k_values", "k", lambda v: knn_cross_validate(_index(), [v], 2),
     1, 1, None),
    ("align_topk", "k",
     lambda v: align_topk(RECORDS, RECORDS[0], v, AlignParams(BLOSUM62)), 1, 1, None),
    ("AlignParams", "gap_open", lambda v: AlignParams(BLOSUM62, gap_open=v), -11,
     None, None),
    ("AlignParams", "gap_extend", lambda v: AlignParams(BLOSUM62, -11, gap_extend=v), -1,
     None, None),
    ("write_fasta", "width", lambda v: write_fasta(RECORDS, io.StringIO(), v), 60, 1, None),
    ("markov_family_corpus", "n_families", lambda v: markov_family_corpus(v, 2, 10),
     2, 1, None),
    ("markov_family_corpus", "per_family", lambda v: markov_family_corpus(2, v, 10),
     2, 1, None),
    ("markov_family_corpus", "length", lambda v: markov_family_corpus(2, 2, v), 10, 1, None),
    ("motif_order_corpus", "per_family", lambda v: motif_order_corpus(v), 2, 1, None),
]


def _bad_values(minimum, maximum):
    """(id, value, message) for each kind of value the setting rejects."""
    bad = [("float", 2.5, "must be an integer, got 2.5"),
           ("bool", True, "must be an integer, got True"),
           ("numpy-bool", np.True_, f"must be an integer, got {re.escape(repr(np.True_))}")]
    if minimum is not None:
        bad.append(("below", minimum - 1, f"must be >= {minimum}, got {minimum - 1}"))
    if maximum is not None:
        bad.append(("above", maximum + 1, f"must be at most {maximum}, got {maximum + 1}"))
    return bad


CASES = [pytest.param(call, ok, value, f"^{name} {message}$", id=f"{entry}-{name}-{kind}")
         for entry, name, call, ok, minimum, maximum in SETTINGS
         for kind, value, message in _bad_values(minimum, maximum)]


@pytest.mark.parametrize("call, ok, value, pattern", CASES)
def test_bad_integer_setting_is_a_config_error_naming_it(call, ok, value, pattern):
    call(ok)  # the other arguments are valid
    with pytest.raises(ConfigError, match=pattern):
        call(value)


def test_hs_config_that_save_model_could_not_write_fails_at_construction():
    # it used to construct, and save_model then died in struct.pack
    with pytest.raises(ConfigError, match="^negative sample count must be >= 0, got -1$"):
        model = init_model(build_vocabulary({"km0": 2, "km1": 1}), 1,
                           TrainConfig(dim=4, objective="hs", negative=-1), ["s0"],
                           TokenizerConfig(3))
        save_model(model, io.BytesIO())


def test_negative_cli_seed_is_a_usage_error(capsys):
    # the seed is checked before the command reads its (here missing) files
    rc = main(["knn-eval", "--vectors", "missing.vec", "--labels", "missing.tsv",
               "--seed", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "seqvec: usage error: seed must be >= 0, got -1\n"


# each integer field of TrainConfig and TokenizerConfig: values it accepts;
# a model is allocated for each configuration that constructs, so a width
# stays at most 2**16 (test_embedding checks that 2**32 - 1 constructs)
ACCEPTED = {"dim": st.integers(1, 2**16), "window": st.integers(1, U32),
            "negative": st.integers(1, MAX_NEGATIVE), "epochs": st.integers(1, U32),
            "seed": st.integers(0, U64), "workers": st.just(1), "k": st.integers(1, MAX_K)}
# and any int, float (often one in the range of most fields) or bool
FLOATS = st.floats() | st.floats(0, 300)
ANY = {name: st.integers() | FLOATS | st.booleans() for name in ACCEPTED}
ANY["dim"] = (st.integers(max_value=2**16) | st.integers(min_value=U32 + 1) | FLOATS
              | st.booleans())


@given(data=st.data())
def test_integer_fields_construct_or_raise_and_round_trip(data):
    # some fields take any int, float or bool, the rest a value they accept:
    # a ConfigError, or a configuration that a model file holds unchanged
    wild = data.draw(st.sets(st.sampled_from(sorted(ACCEPTED))), label="wild")
    fields = {name: data.draw((ANY if name in wild else ACCEPTED)[name], label=name)
              for name in ACCEPTED}
    k = fields.pop("k")
    objective = data.draw(st.sampled_from(["ns", "hs"]), label="objective")
    try:
        cfg = TrainConfig(architecture="dbow", objective=objective, **fields)
        tok = TokenizerConfig(k)
    except ConfigError:
        return
    vocab = build_vocabulary({"km0": 3, "km1": 2})
    blob = io.BytesIO()
    save_model(init_model(vocab, 1, cfg, ["s0"], tok), blob)
    loaded = load_model(blob.getvalue())
    assert (loaded.config, loaded.tokenizer) == (cfg, tok)
