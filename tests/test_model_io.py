"""Tests for binary model files and the text vector format."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqvec.embedding import MAX_NEGATIVE, TrainConfig, init_model, train
from seqvec.errors import ConfigError, DataError, SeqvecError
from seqvec.model_io import (
    _CONFIG,
    ModelFormatError,
    load_model,
    read_vectors,
    save_model,
    write_vectors,
)
from seqvec.sequences import SequenceRecord
from seqvec.tokenizer import (
    TokenizedDoc,
    TokenizerConfig,
    build_corpus,
    build_vocabulary,
)


def _trained_model(objective="ns"):
    vocab = build_vocabulary({f"km{i}": 3 + i for i in range(7)})
    cfg = TrainConfig(architecture="dm", dim=6, objective=objective, negative=3,
                      epochs=4, seed=9)
    model = init_model(vocab, 3, cfg, doc_ids=["seqA", "seqB", "seqC"],
                       tokenizer=TokenizerConfig(3, "nonoverlap"))
    docs = [
        TokenizedDoc(t, 0, np.array([0, 1, 2, 3, 4, 5, 6], dtype=np.int32))
        for t in range(3)
    ]
    return train(model, docs)


def _bytes_of(model):
    buf = io.BytesIO()
    save_model(model, buf)
    return buf.getvalue()


class TestModelRoundTrip:
    @pytest.mark.parametrize("objective", ["ns", "hs"])
    def test_bit_exact_matrices_and_exact_config(self, objective):
        model = _trained_model(objective)
        loaded = load_model(_bytes_of(model))
        assert np.array_equal(loaded.D, model.D)
        assert np.array_equal(loaded.W, model.W)
        assert np.array_equal(loaded.O, model.O)
        assert loaded.config == model.config
        assert loaded.doc_ids == model.doc_ids
        assert loaded.tokenizer == model.tokenizer
        assert loaded.vocab.tokens == model.vocab.tokens
        assert np.array_equal(loaded.vocab.counts, model.vocab.counts)
        assert loaded.vocab.min_count == model.vocab.min_count

    @pytest.mark.parametrize("slot", [0.0, 0.5, float("nan")])
    def test_alpha_min_slot_is_ignored_on_load(self, slot):
        # alpha_min is derived from alpha0; save writes the derived value
        blob = _bytes_of(_trained_model())
        at = 8 + struct.calcsize("<IIIIIdId")  # magic, version, then the config
        edited = blob[:at] + struct.pack("<d", slot) + blob[at + 8 :]
        loaded = load_model(edited)
        assert loaded.config == _trained_model().config
        assert _bytes_of(loaded) == blob

    def test_largest_settings_and_names_round_trip(self):
        # the largest values TrainConfig and read_corpus let through
        top = 2**32 - 1
        cfg = TrainConfig(dim=2, window=top, negative=MAX_NEGATIVE, epochs=top,
                          seed=2**64 - 1)
        vocab = build_vocabulary({"A" * 65535: 2, "C" * 65535: 1})
        model = init_model(vocab, 1, cfg, doc_ids=["\u00e9" * 32767 + "x"],
                           tokenizer=TokenizerConfig(65535, "overlap"))
        blob = _bytes_of(model)
        loaded = load_model(blob)
        assert loaded.config == cfg
        assert loaded.doc_ids == model.doc_ids
        assert loaded.vocab.tokens == vocab.tokens
        assert loaded.tokenizer == model.tokenizer
        assert _bytes_of(loaded) == blob

    def test_kmer_length_above_the_u32_field_rejected(self):
        # it used to be accepted, and save_model then died in struct.pack
        TokenizerConfig(2**32 - 1, "overlap")
        with pytest.raises(ConfigError, match="kmer length must be at most 4294967295"):
            TokenizerConfig(2**32, "overlap")

    def test_save_requires_tokenizer_settings(self):
        # guessing them (overlap mode, k from the token length) would split
        # queries of a non-overlapping model differently from training
        model = _trained_model()
        model.tokenizer = None
        with pytest.raises(ConfigError, match="tokenizer"):
            save_model(model, io.BytesIO())

    def test_save_is_deterministic(self):
        assert _bytes_of(_trained_model()) == _bytes_of(_trained_model())

    def test_sampling_table_rebuilt_on_load(self):
        loaded = load_model(_bytes_of(_trained_model()))
        table = loaded.vocab.sampling_table
        assert np.all(np.diff(table) >= 0)
        assert table[-1] == pytest.approx(1.0, abs=1e-9)


class TestSaveChecksBeforeWriting:
    def test_sequence_id_too_long_for_its_field_writes_nothing(self):
        records = [SequenceRecord("A" * 70000, "", "ACDEFGHIKL"),
                   SequenceRecord("short", "", "MNPQRSTVWY")]
        corpus = build_corpus(records, TokenizerConfig(3, "nonoverlap"))
        model = init_model(corpus.vocab, len(corpus.doc_ids), TrainConfig(dim=4),
                           doc_ids=corpus.doc_ids, tokenizer=corpus.tokenizer)
        stream = io.BytesIO()
        with pytest.raises(DataError, match="^doc id 0 is 70000 UTF-8 bytes long; "
                                            "a model file holds at most 65535$"):
            save_model(model, stream)
        assert stream.tell() == 0

    def test_token_too_long_for_its_field_writes_nothing(self):
        vocab = build_vocabulary({"AC": 3, "\u00e9" * 32768: 2})
        model = init_model(vocab, 1, TrainConfig(dim=4),
                           tokenizer=TokenizerConfig(2, "overlap"))
        stream = io.BytesIO()
        with pytest.raises(DataError, match="^token 1 is 65536 UTF-8 bytes long"):
            save_model(model, stream)
        assert stream.tell() == 0

    def test_doc_id_count_mismatch_writes_nothing(self):
        model = _trained_model()
        model.doc_ids = model.doc_ids[:2]
        stream = io.BytesIO()
        with pytest.raises(DataError, match="doc_ids length"):
            save_model(model, stream)
        assert stream.tell() == 0


class TestModelRejection:
    def test_bad_magic(self):
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(b"NOPE" + b"\x00" * 64)

    def test_bad_version(self):
        blob = bytearray(_bytes_of(_trained_model()))
        blob[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(ModelFormatError, match="version 99"):
            load_model(bytes(blob))

    @pytest.mark.parametrize("fraction", [0.05, 0.3, 0.6, 0.95])
    def test_truncation_always_positioned_never_partial(self, fraction):
        blob = _bytes_of(_trained_model())
        cut = int(len(blob) * fraction)
        with pytest.raises(ModelFormatError, match="byte"):
            load_model(blob[:cut])

    def test_trailing_garbage_rejected(self):
        blob = _bytes_of(_trained_model())
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(blob + b"\x00")

    @pytest.mark.parametrize("field, what", [(b"km4", "token 4"), (b"seqB", "doc id 1")])
    def test_undecodable_id_rejected_with_its_offset(self, field, what):
        blob = bytearray(_bytes_of(_trained_model()))
        at = blob.index(field) + 1
        blob[at] = 0xFF
        with pytest.raises(ModelFormatError,
                           match=f"{what} is not valid UTF-8 at byte {at}$"):
            load_model(bytes(blob))

    @pytest.mark.parametrize("objective, size", [
        ("ns", 0), ("hs", 0), ("hs", 1), ("ns", 2**63), ("ns", 2**64 - 1),
    ])
    def test_impossible_vocabulary_size_rejected(self, objective, size):
        blob = bytearray(_bytes_of(_trained_model(objective)))
        at = 8 + _CONFIG.size
        blob[at : at + 8] = size.to_bytes(8, "little")
        with pytest.raises(ModelFormatError,
                           match=f"vocabulary size {size} at byte {at}$"):
            load_model(bytes(blob))

    def test_vocabulary_cut_short_is_a_truncated_file(self):
        # the size is possible, but the bytes after it cannot hold it; this
        # used to be called an impossible size
        blob = _bytes_of(_trained_model())
        at = 8 + _CONFIG.size
        cut = blob[: at + 8 + 25]
        with pytest.raises(ModelFormatError,
                           match=r"^truncated model file: needed at least 70 bytes, only "
                                 rf"25 left, for ns vocabulary size 7 at byte {at}$"):
            load_model(cut)

    @pytest.mark.parametrize("objective", ["ns", "hs"])
    def test_negative_count_above_the_cap_rejected(self, objective):
        # a value the u32 field holds, but one that would make inference ask
        # numpy for terabytes; only load_model is run on such a file
        blob = bytearray(_bytes_of(_trained_model(objective)))
        at = 8 + 4 * 4  # the config block's fifth u32
        assert struct.unpack_from("<I", blob, at) == (3,)
        for negative, ok in [(MAX_NEGATIVE, True), (MAX_NEGATIVE + 1, False),
                             (4_000_000_000, False)]:
            struct.pack_into("<I", blob, at, negative)
            if ok:
                assert load_model(bytes(blob)).config.negative == negative
                continue
            with pytest.raises(ModelFormatError, match="invalid config block: negative "
                               f"sample count must be at most {MAX_NEGATIVE}"):
                load_model(bytes(blob))

    @pytest.mark.parametrize("old, new, block, reason", [
        (b"km4", b"km3", "vocabulary", "duplicate token strings in vocabulary"),
        (b"km0" + (3).to_bytes(8, "little"), b"km0" + bytes(8), "vocabulary",
         "vocabulary contains tokens below min_count"),
        (struct.pack("<4s4I", b"SQV1", 1, 0, 6, 5),  # magic, version, dm, dim, window
         struct.pack("<4s4I", b"SQV1", 1, 0, 6, 0), "config", "window must be >= 1, got 0"),
    ], ids=["repeated-token", "count-below-min-count", "zero-window"])
    def test_invalid_block_names_its_offset(self, old, new, block, reason):
        blob = _bytes_of(_trained_model())
        assert blob.count(old) == 1
        at = 8 if block == "config" else 8 + _CONFIG.size
        with pytest.raises(ModelFormatError, match=rf"^invalid {block} block: {reason}"
                                                   rf".*\(block at byte {at}\)$"):
            load_model(blob.replace(old, new))

    def test_token_count_beyond_int64_rejected_with_its_offset(self):
        # it used to escape as a raw OverflowError
        blob = bytearray(_bytes_of(_trained_model()))
        at = blob.index(b"km2") + 3  # token 2's u64 count follows its text
        blob[at : at + 8] = (2**63).to_bytes(8, "little")
        with pytest.raises(ModelFormatError,
                           match=f"token 2 count {2**63} at byte {at} exceeds"):
            load_model(bytes(blob))
        blob[at : at + 8] = (2**63 - 1).to_bytes(8, "little")
        assert load_model(bytes(blob)).vocab.counts[2] == 2**63 - 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("matrix, row", [("D", 0), ("W", 4), ("O", 6)])
    def test_non_finite_matrix_entry_rejected_with_its_row(self, matrix, row, value):
        # the last float of each named row; O's is the file's last float
        model = _trained_model()
        getattr(model, matrix)[row, -1] = value
        blob = _bytes_of(model)
        at = blob.index(getattr(model, matrix)[row].astype("<f4").tobytes()) + 4 * 5
        assert matrix != "O" or at == len(blob) - 4
        what = {"D": "document", "W": "word", "O": "output"}[matrix]
        with pytest.raises(ModelFormatError,
                           match=f"{what} matrix row {row} has a non-finite value "
                                 f"at byte {at}$"):
            load_model(blob)


class TestVectorText:
    def test_round_trip_preserves_float32_exactly(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(5, 7)).astype(np.float32)
        ids = [f"id{i}" for i in range(5)]
        buf = io.StringIO()
        write_vectors(ids, matrix, buf)
        ids2, matrix2 = read_vectors(buf.getvalue())
        assert ids2 == ids
        assert np.array_equal(matrix2, matrix)

    def test_header_shape(self):
        buf = io.StringIO()
        write_vectors(["a"], np.zeros((1, 3), dtype=np.float32), buf)
        assert buf.getvalue().splitlines()[0] == "1 3"

    def test_declared_count_checked(self):
        with pytest.raises(DataError, match="declares"):
            read_vectors("2 3\nid0 1 2 3\n")

    def test_field_count_checked(self):
        with pytest.raises(DataError, match="line 2"):
            read_vectors("1 3\nid0 1 2\n")

    def test_empty_file_rejected(self):
        with pytest.raises(DataError):
            read_vectors("")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_value_rejected_with_its_line(self, value):
        # 1e39 is finite in float64 but overflows the float32 matrix
        with pytest.raises(DataError, match="line 3: vector 'b' has a non-finite"):
            read_vectors(f"2 2\na 1 2\nb 1 {value}\n")

    def test_non_numeric_value_rejected_with_its_line(self):
        with pytest.raises(DataError, match="line 2: non-numeric"):
            read_vectors("1 2\na 1 x\n")

    @pytest.mark.parametrize("header", ["1 2.0", "one 2", "1 -2", "1 0", "0 0"])
    def test_non_integer_header_rejected(self, header):
        with pytest.raises(DataError, match="line 1"):
            read_vectors(f"{header}\na 1 2\n")

    @pytest.mark.parametrize("text", ["1 1099511627776\na 1\n", "0 4294967296\n",
                                      "0 18446744073709551616\n"],
                             ids=["one-row", "no-row", "beyond-int64"])
    def test_dim_no_model_holds_rejected_before_any_allocation(self, text):
        # at 2^40 one row of float64 is 8 TiB; at 2^64 numpy refuses the shape
        with pytest.raises(DataError, match="^line 1: expected header 'N d', "
                                            "1 <= d <= 4294967295, got "):
            read_vectors(text)

    def test_duplicate_id_rejected_with_its_line(self):
        with pytest.raises(DataError, match="line 4: duplicate vector id 'a'"):
            read_vectors("3 2\na 1 2\nb 3 4\na 5 6\n")


_VALUE = st.one_of(st.floats(-1e3, 1e3), st.floats()).map(repr)
_ODD_VECTOR_LINE = st.one_of(
    st.builds(lambda rid, values: " ".join([rid, *values]), st.sampled_from(["s0", "x", ""]),
              st.lists(st.one_of(_VALUE, st.text(max_size=3)), max_size=3)),
    st.text(max_size=20),
)


@st.composite
def _vector_files(draw):
    """Bytes, or rows of two values with malformed lines put in among them
    under a header that mostly counts them."""
    if draw(st.integers(0, 3)) == 1:
        return draw(st.binary(max_size=80))
    values = draw(st.lists(st.tuples(_VALUE, _VALUE), max_size=4))
    lines = [f"s{0 if draw(st.integers(0, 3)) == 1 else i} {a} {b}"  # ids may repeat
             for i, (a, b) in enumerate(values)]
    for line in draw(st.lists(_ODD_VECTOR_LINE, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    odd = st.one_of(st.integers(0, 3), st.sampled_from([2**32, 2**40, 2**64]),
                    st.text(max_size=3))
    n = draw(odd) if draw(st.integers(0, 3)) == 1 else len(lines)
    d = draw(odd) if draw(st.integers(0, 3)) == 1 else 2
    return "\n".join([f"{n} {d}", *lines])


class TestReadVectorsTotality:
    @settings(max_examples=200)
    @given(_vector_files())
    def test_any_input_yields_vectors_or_a_seqvec_error(self, data):
        try:
            ids, matrix = read_vectors(data)
        except SeqvecError:
            return
        assert len(matrix) == len(set(ids)) == len(ids)
        assert np.isfinite(matrix).all()
