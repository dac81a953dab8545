"""Tests for kmer tokenization, vocabulary, subsampling, and Huffman codes."""

import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqvec.errors import DataError
from seqvec.sequences import SequenceRecord
from seqvec.tokenizer import (
    Corpus,
    TokenizerConfig,
    Vocabulary,
    build_corpus,
    build_huffman,
    build_vocabulary,
    kmers_nonoverlapping,
    kmers_overlapping,
    read_corpus,
    subsample_filter,
    subsample_keep_probs,
    write_corpus,
)


class TestOverlapping:
    def test_acgtta(self):
        assert kmers_overlapping("ACGTTA", 3) == ["ACG", "CGT", "GTT", "TTA"]

    def test_qwerty_twice(self):
        assert kmers_overlapping("QWERTYQWERTY", 3) == [
            "QWE", "WER", "ERT", "RTY", "TYQ",
            "YQW", "QWE", "WER", "ERT", "RTY",
        ]

    def test_too_short(self):
        with pytest.raises(DataError, match="shorter than k"):
            kmers_overlapping("AC", 3)

    @given(st.text(st.sampled_from("ACGT"), min_size=1, max_size=80),
           st.integers(1, 6))
    def test_count_and_prefix_recovery(self, seq, k):
        if len(seq) < k:
            with pytest.raises(DataError):
                kmers_overlapping(seq, k)
            return
        out = kmers_overlapping(seq, k)
        assert len(out) == len(seq) - k + 1
        assert "".join(km[0] for km in out) == seq[: len(out)]


class TestNonOverlapping:
    def test_qwerty_twice_three_phases(self):
        assert kmers_nonoverlapping("QWERTYQWERTY", 3) == [
            ["QWE", "RTY", "QWE", "RTY"],
            ["WER", "TYQ", "WER"],
            ["ERT", "YQW", "ERT"],
        ]

    def test_uniform_sequence(self):
        assert kmers_nonoverlapping("AAAA", 2) == [["AA", "AA"], ["AA"]]

    def test_boundary_too_short(self):
        with pytest.raises(DataError, match="too short"):
            kmers_nonoverlapping("AAA", 3)  # phase 1 would be empty

    @given(st.text(st.sampled_from("ACGT"), min_size=1, max_size=80),
           st.integers(1, 6))
    def test_phase_counts_and_coverage(self, seq, k):
        if len(seq) < 2 * k - 1:
            with pytest.raises(DataError):
                kmers_nonoverlapping(seq, k)
            return
        phases = kmers_nonoverlapping(seq, k)
        assert len(phases) == k
        total = sum(len(ph) for ph in phases)
        assert total == sum((len(seq) - p) // k for p in range(k))
        covered = set()
        for p, phase in enumerate(phases):
            assert all(len(km) == k for km in phase)
            for i, km in enumerate(phase):
                start = p + i * k
                assert seq[start : start + k] == km
                covered.update(range(start, start + k))
        assert covered == set(range(max(len(seq) - k + 1, 0) + k - 1))


def _qwerty_record():
    return SequenceRecord("q1", "", "QWERTYQWERTY")


class TestBuildCorpus:
    def test_phase_documents_share_tag_and_counts(self):
        # phase lists enumerated by hand: QWE RTY QWE RTY / WER TYQ WER /
        # ERT YQW ERT -> counts QWE:2 RTY:2 WER:2 TYQ:1 ERT:2 YQW:1
        corpus = build_corpus([_qwerty_record()], TokenizerConfig(3), 1)
        docs, vocab = corpus.docs, corpus.vocab
        assert corpus.tokenizer == TokenizerConfig(3)
        assert len(docs) == 3
        assert {d.doc_tag for d in docs} == {0}
        assert [d.phase for d in docs] == [0, 1, 2]
        assert len(vocab) == 6
        expected = {"QWE": 2, "RTY": 2, "WER": 2, "TYQ": 1, "ERT": 2, "YQW": 1}
        got = {tok: int(vocab.counts[i]) for i, tok in enumerate(vocab.tokens)}
        assert got == expected

    def test_min_count_drops_tokens_and_occurrences(self):
        corpus = build_corpus([_qwerty_record()], TokenizerConfig(3), 2)
        docs, vocab = corpus.docs, corpus.vocab
        assert set(vocab.tokens) == {"QWE", "RTY", "WER", "ERT"}
        strings = [[vocab.tokens[t] for t in d.tokens] for d in docs]
        assert strings == [["QWE", "RTY", "QWE", "RTY"], ["WER", "WER"], ["ERT", "ERT"]]

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(DataError, match="empty corpus"):
            build_corpus([], TokenizerConfig(3), 1)

    def test_short_sequences_skipped_and_reported(self):
        corpus = build_corpus(
            [SequenceRecord("ok", "", "QWERTYQWERTY"), SequenceRecord("tiny", "", "QW")],
            TokenizerConfig(3),
            1,
        )
        assert corpus.skipped == ["tiny"]
        assert corpus.doc_ids == ["ok"]

    def test_overlap_mode_one_doc_per_sequence(self):
        docs = build_corpus(
            [SequenceRecord("a", "", "ACGTTA"), SequenceRecord("b", "", "ACGTAC")],
            TokenizerConfig(3, "overlap"),
            1,
        ).docs
        assert [d.doc_tag for d in docs] == [0, 1]
        assert all(d.phase == 0 for d in docs)

    def test_doc_tags_contiguous_and_ids_in_range(self):
        records = [
            SequenceRecord(f"s{i}", "", "QWERTYQWERTYQW"[: 12 + (i % 3)])
            for i in range(7)
        ]
        corpus = build_corpus(records, TokenizerConfig(3), 1)
        docs, vocab = corpus.docs, corpus.vocab
        tags = sorted({d.doc_tag for d in docs})
        assert tags == list(range(len(tags)))
        for d in docs:
            assert len(d.tokens) > 0
            assert d.tokens.max() < len(vocab)


class TestSubsampleFilter:
    def test_threshold_one_keeps_everything(self):
        vocab = build_vocabulary({"AAA": 5, "CCC": 5})
        tokens = [0, 1, 0, 1, 0]
        out = subsample_filter(tokens, subsample_keep_probs(vocab, 1.0),
                               np.random.default_rng(0))
        assert out.tolist() == tokens

    def test_monte_carlo_keep_rate_single_token(self):
        # keep probability for f=1, t=1e-4 is sqrt(1e-4) + 1e-4 = 0.0101
        vocab = build_vocabulary({"AAA": 100})
        rng = np.random.default_rng(42)
        n = 100_000
        keep = subsample_keep_probs(vocab, 1e-4)
        kept = len(subsample_filter(np.zeros(n, dtype=np.int32), keep, rng))
        assert abs(kept / n - 0.0101) < 0.002

    def test_empty_input(self):
        vocab = build_vocabulary({"AAA": 1})
        out = subsample_filter([], subsample_keep_probs(vocab, 0.5), np.random.default_rng(0))
        assert len(out) == 0

    def test_seeded_reproducibility(self):
        vocab = build_vocabulary({"AAA": 90, "CCC": 10})
        tokens = np.array([0, 1] * 50, dtype=np.int32)
        keep = subsample_keep_probs(vocab, 1e-2)
        a = subsample_filter(tokens, keep, np.random.default_rng(7))
        b = subsample_filter(tokens, keep, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_order_preserved(self):
        vocab = build_vocabulary({"AAA": 999, "CCC": 1})
        tokens = np.array([0, 1, 0, 1, 0, 0, 1], dtype=np.int32)
        out = subsample_filter(tokens, subsample_keep_probs(vocab, 1e-3),
                               np.random.default_rng(3))
        # survivors must be a subsequence of the input
        it = iter(tokens.tolist())
        assert all(any(t == o for t in it) for o in out.tolist())


class TestVocabulary:
    def test_sampling_table_nondecreasing_and_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            vocab = build_vocabulary(
                {f"t{i}": int(rng.integers(1, 500)) for i in range(n)}
            )
            table = vocab.sampling_table
            assert np.all(np.diff(table) >= 0)
            assert abs(table[-1] - 1.0) < 1e-9

    def test_ids_dense_and_counts_filtered(self):
        vocab = build_vocabulary({"a": 5, "b": 1, "c": 3}, min_count=2)
        assert vocab.tokens == ["a", "c"]
        assert vocab.index == {"a": 0, "c": 1}
        assert vocab.total == 8

    def test_encode_maps_kmers_to_ids_and_drops_unknown(self):
        vocab = build_vocabulary({"a": 5, "b": 1, "c": 3}, min_count=2)
        ids = vocab.encode(["c", "b", "zz", "a", "c"])
        assert ids.dtype == np.int32
        assert ids.tolist() == [1, 0, 1]
        assert vocab.encode(["b"]).tolist() == []


class TestHuffman:
    def test_vocabulary_builds_its_coding_once_on_first_use(self):
        vocab = build_vocabulary({"a": 4, "b": 1, "c": 1})
        assert "huffman" not in vars(vocab)
        coding = vocab.huffman
        assert coding is vocab.huffman
        assert all(map(np.array_equal, coding.codes, build_huffman(vocab).codes))
        with pytest.raises(TypeError):
            Vocabulary(["a"], [1], min_count=1, huffman=coding)

    def test_two_tokens_complementary_single_bits(self):
        vocab = build_vocabulary({"a": 1, "b": 1})
        h = build_huffman(vocab)
        assert [len(c) for c in h.codes] == [1, 1]
        assert h.codes[0][0] != h.codes[1][0]
        assert h.n_inner == 1

    def test_three_tokens_skewed(self):
        # merging the two singletons first leaves the heavy token at depth 1
        vocab = build_vocabulary({"a": 4, "b": 1, "c": 1})
        h = build_huffman(vocab)
        assert len(h.codes[0]) == 1
        assert len(h.codes[1]) == 2
        assert len(h.codes[2]) == 2

    def test_objective_arrays_follow_the_code_bits(self):
        h = build_huffman(build_vocabulary({"a": 4, "b": 1, "c": 1}))
        for bits, target in zip(h.codes, h.targets):
            assert target.dtype == np.float32
            assert np.array_equal(target, 1 - bits.astype(int))

    @pytest.mark.parametrize("counts", [[1, 1], [40, 20, 10, 5, 3, 2, 1, 1]])
    def test_padded_tables_hold_the_paths(self, counts):
        # the skewed vocabulary's paths run from 1 to 7 nodes
        h = build_huffman(build_vocabulary({f"t{i}": c for i, c in enumerate(counts)}))
        K = max(len(p) for p in h.paths)
        assert h.lengths.tolist() == [len(p) for p in h.paths]
        assert h.path_table.shape == h.target_table.shape == (len(counts), K)
        assert h.path_table.dtype == np.intp
        assert h.target_table.dtype == np.float32
        for t, (path, target) in enumerate(zip(h.paths, h.targets)):
            n = len(path)
            assert h.path_table[t, :n].tolist() == path.tolist()
            assert h.target_table[t, :n].tolist() == target.tolist()
            assert not h.path_table[t, n:].any() and not h.target_table[t, n:].any()

    def test_single_token_is_an_error(self):
        with pytest.raises(DataError):
            build_huffman(build_vocabulary({"a": 1}))

    def test_deterministic_tie_break(self):
        vocab = build_vocabulary({"a": 1, "b": 1, "c": 1, "d": 1})
        h1 = build_huffman(vocab)
        h2 = build_huffman(vocab)
        assert all(np.array_equal(a, b) for a, b in zip(h1.codes, h2.codes))

    @settings(max_examples=40)
    @given(st.lists(st.integers(1, 50), min_size=2, max_size=24))
    def test_prefix_free_and_inner_node_count(self, counts):
        vocab = build_vocabulary({f"t{i}": c for i, c in enumerate(counts)})
        h = build_huffman(vocab)
        assert h.n_inner == len(counts) - 1
        codes = ["".join(map(str, c.tolist())) for c in h.codes]
        assert len(set(codes)) == len(codes)
        for i, a in enumerate(codes):
            for j, b in enumerate(codes):
                if i != j:
                    assert not b.startswith(a)
        for c, p in zip(h.codes, h.paths):
            assert len(c) == len(p)

    @settings(max_examples=25)
    @given(st.lists(st.integers(1, 50), min_size=2, max_size=16))
    def test_expected_code_length_is_minimal(self, counts):
        # oracle: optimal expected depth computed by the elementary
        # two-smallest-merge total, independent of tree construction
        vocab = build_vocabulary({f"t{i}": c for i, c in enumerate(counts)})
        h = build_huffman(vocab)
        pool = sorted(counts)
        optimal_total = 0
        while len(pool) > 1:
            a, b = pool[0], pool[1]
            optimal_total += a + b
            pool = sorted(pool[2:] + [a + b])
        got_total = sum(len(c) * n for c, n in zip(h.codes, counts))
        assert got_total == optimal_total


class TestCorpusRoundTrip:
    def test_write_then_read(self):
        cfg = TokenizerConfig(3)
        corpus = build_corpus(
            [_qwerty_record(), SequenceRecord("r2", "", "QWERTYQWERT")], cfg, 1
        )
        buf = io.StringIO()
        write_corpus(corpus, buf)
        assert buf.getvalue().startswith("#meta k=3 mode=nonoverlap\n")
        loaded = read_corpus(buf.getvalue())
        assert loaded.tokenizer == cfg
        assert loaded.doc_ids == corpus.doc_ids
        original = [
            (d.doc_tag, d.phase, [corpus.vocab.tokens[t] for t in d.tokens])
            for d in corpus.docs
        ]
        reloaded = [
            (d.doc_tag, d.phase, [loaded.vocab.tokens[t] for t in d.tokens])
            for d in loaded.docs
        ]
        assert original == reloaded

    def test_min_count_corpus_reads_back_identically(self):
        cfg = TokenizerConfig(3)
        records = [_qwerty_record(), SequenceRecord("r2", "", "QWERTYQWERT"),
                   SequenceRecord("r3", "", "MMMKKKLLLPPP")]
        corpus = build_corpus(records, cfg, min_count=2)
        buf = io.StringIO()
        write_corpus(corpus, buf)
        loaded = read_corpus(buf.getvalue())
        assert loaded.vocab.tokens == corpus.vocab.tokens
        assert loaded.vocab.counts.tolist() == corpus.vocab.counts.tolist()
        assert loaded.doc_ids == corpus.doc_ids == ["q1", "r2"]
        assert [(d.doc_tag, d.phase, d.tokens.tolist()) for d in loaded.docs] == [
            (d.doc_tag, d.phase, d.tokens.tolist()) for d in corpus.docs
        ]

    def test_tag_gaps_become_dense_rows(self):
        text = "#doc 0 a\n#doc 1 b\n#doc 2 c\n0 0 ACG TTA\n2 0 CGT ACG\n"
        corpus = read_corpus(text)
        assert corpus.doc_ids == ["a", "c"]
        assert [d.doc_tag for d in corpus.docs] == [0, 1]
        assert corpus.vocab.tokens == ["ACG", "TTA", "CGT"]

    def test_negative_tag_rejected_with_its_line(self):
        with pytest.raises(DataError, match="line 2: negative doc_tag"):
            read_corpus("0 0 ACG\n-1 0 TTA\n")

    @pytest.mark.parametrize("meta, what", [("k=x", "kmer length"), ("k=0", "kmer length"),
                                            ("k=-3", "kmer length"),
                                            ("mode=weird", "mode")])
    def test_bad_metadata_rejected_with_its_line(self, meta, what):
        with pytest.raises(DataError, match=f"line 2: {what}"):
            read_corpus(f"#doc 0 a\n#meta {meta}\n0 0 ACG\n")

    def test_read_without_metadata_infers_config(self):
        text = "0 0 ACG TTA\n0 1 CGT TAC\n"
        corpus = read_corpus(text)
        assert corpus.tokenizer == TokenizerConfig(3, "nonoverlap")
        assert corpus.doc_ids == ["doc0"]

    def test_malformed_line_positioned(self):
        with pytest.raises(DataError, match="line 1"):
            read_corpus("0 ACG\n")

    @pytest.mark.parametrize("text, message", [
        ("#doc x a\n0 0 ACG\n", "line 1: bad doc tag in '#doc x a'"),
        ("0 0 ACG\nx 0 CGT\n", "line 2: bad doc_tag/phase in 'x 0 CGT'"),
        ("0 0 ACG\n0 y CGT\n", "line 2: bad doc_tag/phase in '0 y CGT'"),
        ("# a comment\n#\n", "empty corpus file"),
    ], ids=["doc-tag", "tag", "phase", "only-comments"])
    def test_bad_tags_and_phases_rejected_with_their_line(self, text, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            read_corpus(text)

    def test_blank_lines_are_skipped(self):
        text = "#meta k=3 mode=nonoverlap\n0 0 ACG TTA\n0 1 CGT\n"
        spaced = read_corpus(text.replace("\n", "\n\n   \n"))
        corpus = read_corpus(text)
        assert spaced.tokenizer == corpus.tokenizer
        assert spaced.vocab.tokens == corpus.vocab.tokens
        assert [d.tokens.tolist() for d in spaced.docs] == [
            d.tokens.tolist() for d in corpus.docs]

    def test_read_without_metadata_infers_overlap_from_phase_zero(self):
        corpus = read_corpus("0 0 ACGT CGTA\n1 0 GTAC\n")
        assert corpus.tokenizer == TokenizerConfig(4, "overlap")

    @pytest.mark.parametrize("text, lineno, i, length, k", [
        ("#meta k=3 mode=nonoverlap\n0 0 ACD\n0 1 CDE ACDE\n", 3, 2, 4, 3),
        ("0 0 ACDE\n0 1 CDEF\n#meta k=3 mode=nonoverlap\n", 1, 1, 4, 3),
        ("0 0 ACG\n#meta k=99999999999 mode=nonoverlap\n", 1, 1, 3, 99999999999),
        ("0 0 ACG CGT\n0 1 CG\n", 2, 1, 2, 3),  # no #meta: the first kmer's k
    ], ids=["meta-first", "meta-last", "k-beyond-u32", "no-meta"])
    def test_kmers_of_another_length_rejected_with_their_line(self, text, lineno, i,
                                                               length, k):
        with pytest.raises(DataError, match=f"^line {lineno}: kmer {i} is {length} "
                                            f"letters long, not k={k}$"):
            read_corpus(text)

    @pytest.mark.parametrize("kmer", ["A" * 65536, "\u00e9" * 32768],
                             ids=["one-byte-letters", "two-byte-letters"])
    def test_kmer_a_model_file_cannot_hold_rejected_with_its_line(self, kmer):
        with pytest.raises(DataError, match="^line 2: kmer 1 is longer than 65535 "
                                            "UTF-8 bytes$"):
            read_corpus(f"#doc 0 a\n0 0 {kmer}\n")

    def test_sequence_id_a_model_file_cannot_hold_rejected_with_its_line(self):
        with pytest.raises(DataError, match="^line 1: sequence id is longer than "
                                            "65535 UTF-8 bytes$"):
            read_corpus("#doc 0 " + "x" * 65536 + "\n0 0 ACG\n")

    @pytest.mark.parametrize("text, lineno, phase, phases, mode", [
        ("#meta k=3 mode=overlap\n0 1 ACD\n0 2 CDE\n", 2, 1, 1, "overlap"),
        ("#meta k=3 mode=nonoverlap\n0 0 ACD\n0 5 CDE\n0 -1 DEF\n", 3, 5, 3,
         "nonoverlap"),
        ("0 0 ACD\n#meta mode=nonoverlap k=3\n1 -1 CDE\n", 3, -1, 3, "nonoverlap"),
        ("0 0 ACD\n0 -1 CDE\n", 2, -1, 1, "overlap"),  # inferred
        ("0 1 ACD\n0 3 CDE\n", 2, 3, 3, "nonoverlap"),  # inferred
    ], ids=["overlap", "nonoverlap-above-k", "nonoverlap-negative",
            "inferred-overlap", "inferred-nonoverlap"])
    def test_phase_the_mode_lacks_rejected_with_its_line(self, text, lineno, phase,
                                                         phases, mode):
        with pytest.raises(DataError, match=re.escape(
                f"line {lineno}: phase {phase} is not in [0, {phases}), the phases "
                f"of mode={mode} with k=3") + "$"):
            read_corpus(text)

    def test_longest_kmer_and_id_a_model_file_holds_load(self):
        rid, kmer = "\u00e9" * 32767 + "x", "A" * 65535
        corpus = read_corpus(f"#doc 0 {rid}\n0 0 {kmer}\n")
        assert corpus.doc_ids == [rid]
        assert corpus.tokenizer.k == 65535


class TestCorpusApi:
    def test_corpus_does_not_unpack(self):
        corpus = build_corpus([_qwerty_record()], TokenizerConfig(3), 1)
        assert not hasattr(Corpus, "__iter__")
        with pytest.raises(TypeError):
            docs, vocab = corpus

    @pytest.mark.parametrize("cfg", [TokenizerConfig(3), TokenizerConfig(2, "overlap")])
    def test_settings_travel_from_build_through_the_file(self, cfg):
        corpus = build_corpus([_qwerty_record()], cfg, 1)
        assert corpus.tokenizer == cfg
        buf = io.StringIO()
        write_corpus(corpus, buf)
        assert buf.getvalue().splitlines()[0] == f"#meta k={cfg.k} mode={cfg.mode}"
        assert read_corpus(buf.getvalue()).tokenizer == cfg

    def test_write_corpus_takes_no_settings_of_its_own(self):
        corpus = build_corpus([_qwerty_record()], TokenizerConfig(3), 1)
        with pytest.raises(TypeError):
            write_corpus(corpus, io.StringIO(), TokenizerConfig(3))
