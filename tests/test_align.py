"""Tests for local alignment scoring and retrieval.

Two oracles stand behind the batched kernel: ``reference_sw``, a
deliberately naive full-matrix three-matrix affine DP, and
``rolling_sw``, the earlier production pair scorer (float rolling rows,
fast enough for 240-residue pairs in bulk). The production code must
agree with both exactly on every instance tried.
"""

from pathlib import Path

import numpy as np
import pytest

from seqvec import align
from seqvec.align import (
    AlignParams,
    BLOSUM62,
    align_classify,
    align_topk,
    blosum62_params,
    load_substitution_matrix,
    smith_waterman,
)
from seqvec.errors import ConfigError, DataError
from seqvec.sequences import SequenceRecord

DATA = Path(__file__).parent / "data"


def reference_sw(a: str, b: str, sub: np.ndarray, open_: int, ext: int) -> int:
    """Full-matrix affine Smith-Waterman, no shortcuts."""
    n, m = len(a), len(b)
    NEG = float("-inf")
    H = [[0.0] * (m + 1) for _ in range(n + 1)]
    E = [[NEG] * (m + 1) for _ in range(n + 1)]
    F = [[NEG] * (m + 1) for _ in range(n + 1)]
    best = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            E[i][j] = max(H[i][j - 1] + open_, E[i][j - 1] + ext)
            F[i][j] = max(H[i - 1][j] + open_, F[i - 1][j] + ext)
            s = sub[ord(a[i - 1]) - 65, ord(b[j - 1]) - 65]
            H[i][j] = max(0.0, H[i - 1][j - 1] + s, E[i][j], F[i][j])
            best = max(best, H[i][j])
    return int(best)


def rolling_sw(a: str, b: str, sub: np.ndarray, open_: int, ext: int) -> int:
    """One pair, float64 rolling rows plus a prefix-max scan per row."""
    ca = np.frombuffer(a.encode("ascii"), dtype=np.uint8).astype(np.int64) - 65
    cb = np.frombuffer(b.encode("ascii"), dtype=np.uint8).astype(np.int64) - 65
    if len(cb) > len(ca):
        ca, cb = cb, ca
    m = len(cb)
    sub = np.asarray(sub).astype(np.float64)
    open_, ext = float(open_), float(ext)

    H = np.zeros(m + 1)
    F = np.full(m + 1, -np.inf)
    ladder = ext * np.arange(1, m + 1)  # l * ext for the prefix-max trick
    expand = open_ + ext * np.arange(m)  # open + (j-1) * ext
    G = np.empty(m + 1)
    best = 0.0
    for ai in ca:
        D = H[:-1] + sub[ai, cb]
        Fn = np.maximum(H[1:] + open_, F[1:] + ext)
        B = np.maximum(np.maximum(D, Fn), 0.0)
        # E[j] = open + (j-1-l)*ext + B[l] maximized over l < j
        G[0] = 0.0
        G[1:] = B - ladder
        M = np.maximum.accumulate(G)
        E = expand + M[:m]
        Hn = np.maximum(B, E)
        best = max(best, Hn.max())
        H[1:] = Hn
        F[1:] = Fn
    return int(best)


def uniform_table(match: int = 2, mismatch: int = -1) -> np.ndarray:
    t = np.full((26, 26), mismatch, dtype=np.int32)
    np.fill_diagonal(t, match)
    return t


@pytest.fixture(scope="module")
def blosum50():
    return load_substitution_matrix((DATA / "blosum50.txt").read_text())


class TestSmithWaterman:
    def test_perfect_match_no_gaps(self):
        p = AlignParams(uniform_table(), gap_open=-2, gap_extend=-1)
        assert smith_waterman("ACG", "ACG", p) == 6

    def test_no_positive_cell_floors_at_zero(self):
        p = AlignParams(uniform_table(), gap_open=-2, gap_extend=-1)
        assert smith_waterman("AAAA", "CCCC", p) == 0

    def test_classic_gapped_pair_blosum50(self, blosum50):
        # matches A+W+H+E+E = 5+15+10+6 = 36 around one one-letter gap
        # (-10); frozen from the reference DP above
        p = AlignParams(blosum50, gap_open=-10, gap_extend=-1)
        assert reference_sw("HEAGAWGHEE", "PAWHEAE", blosum50, -10, -1) == 26
        assert smith_waterman("HEAGAWGHEE", "PAWHEAE", p) == 26

    def test_empty_sequence_rejected(self):
        p = AlignParams(uniform_table(), -2, -1)
        with pytest.raises(DataError, match="empty"):
            smith_waterman("", "ACG", p)
        with pytest.raises(DataError, match="empty"):
            smith_waterman("ACG", "", p)

    def test_non_letter_rejected(self):
        p = AlignParams(uniform_table(), -2, -1)
        with pytest.raises(DataError, match="non-letter"):
            smith_waterman("AC-G", "ACG", p)

    def test_non_ascii_rejected_before_case_folding(self):
        # 'É' has no ASCII code; 'ß'.upper() is 'SS', two valid residues
        for seq in ("AÉ", "Aß"):
            with pytest.raises(DataError, match="non-ASCII"):
                smith_waterman(seq, "A", blosum62_params())

    def test_matches_oracle_on_random_dna_pairs(self):
        rng = np.random.default_rng(11)
        p = AlignParams(uniform_table(3, -2), gap_open=-4, gap_extend=-1)
        for _ in range(150):
            a = "".join(rng.choice(list("ACGT"), rng.integers(1, 13)))
            b = "".join(rng.choice(list("ACGT"), rng.integers(1, 13)))
            assert smith_waterman(a, b, p) == reference_sw(
                a, b, p.substitution, p.gap_open, p.gap_extend
            )

    def test_matches_oracle_under_blosum62(self):
        rng = np.random.default_rng(5)
        letters = list("ACDEFGHIKLMNPQRSTVWY")
        p = blosum62_params()
        for _ in range(60):
            a = "".join(rng.choice(letters, rng.integers(1, 15)))
            b = "".join(rng.choice(letters, rng.integers(1, 15)))
            assert smith_waterman(a, b, p) == reference_sw(
                a, b, p.substitution, p.gap_open, p.gap_extend
            )

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        letters = list("ACDEFGHIKLMNPQRSTVWY")
        p = blosum62_params()
        for _ in range(50):
            a = "".join(rng.choice(letters, rng.integers(1, 30)))
            b = "".join(rng.choice(letters, rng.integers(1, 30)))
            assert smith_waterman(a, b, p) == smith_waterman(b, a, p)

    def test_identity_dominance(self):
        rng = np.random.default_rng(4)
        letters = list("ACDEFGHIKLMNPQRSTVWY")
        p = blosum62_params()
        for _ in range(25):
            a = "".join(rng.choice(letters, rng.integers(3, 25)))
            b = "".join(rng.choice(letters, rng.integers(3, 25)))
            assert smith_waterman(a, a, p) >= smith_waterman(a, b, p)

    def test_appending_never_decreases_score(self):
        rng = np.random.default_rng(6)
        letters = list("ACDEFGHIKLMNPQRSTVWY")
        p = blosum62_params()
        for _ in range(25):
            a = "".join(rng.choice(letters, rng.integers(2, 15)))
            b = "".join(rng.choice(letters, rng.integers(2, 15)))
            base = smith_waterman(a, b, p)
            grown = smith_waterman(
                a + "".join(rng.choice(letters, 4)),
                b + "".join(rng.choice(letters, 4)),
                p,
            )
            assert grown >= base


class TestBlosum62Table:
    def test_symmetric(self):
        assert np.array_equal(BLOSUM62, BLOSUM62.T)

    def test_diagonal_is_row_maximum(self):
        for i in range(26):
            assert BLOSUM62[i, i] == BLOSUM62[i].max()

    def test_canonical_core_values(self):
        def s(a, b):
            return BLOSUM62[ord(a) - 65, ord(b) - 65]

        assert s("A", "A") == 4
        assert s("W", "W") == 11
        assert s("C", "C") == 9
        assert s("A", "R") == -1
        assert s("W", "Y") == 2
        assert s("E", "Z") == 4
        assert s("D", "B") == 4

    def test_extended_letter_conventions(self):
        def s(a, b):
            return BLOSUM62[ord(a) - 65, ord(b) - 65]

        assert all(s("X", c) == -1 for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ")
        assert s("U", "U") == s("C", "C") and s("U", "C") == s("C", "C")
        assert s("O", "O") == s("K", "K") and s("O", "K") == s("K", "K")
        assert s("J", "I") == 3 and s("J", "L") == 3 and s("J", "J") == 3


class TestAlignParams:
    def test_asymmetric_table_rejected(self):
        t = uniform_table()
        t[0, 1] = 5
        with pytest.raises(ConfigError, match="symmetric"):
            AlignParams(t, -2, -1)

    def test_gap_ordering_enforced(self):
        with pytest.raises(ConfigError, match="gap"):
            AlignParams(uniform_table(), gap_open=-1, gap_extend=-2)
        with pytest.raises(ConfigError, match="gap"):
            AlignParams(uniform_table(), gap_open=1, gap_extend=1)

    def test_scores_must_be_integers(self):
        # the kernel scores in int32/int64 lanes
        with pytest.raises(ConfigError, match="integers"):
            AlignParams(uniform_table().astype(np.float64), -2, -1)
        with pytest.raises(ConfigError, match="^gap_open must be an integer, got -2.5$"):
            AlignParams(uniform_table(), gap_open=-2.5, gap_extend=-1)
        assert smith_waterman("ACG", "ACG", AlignParams(uniform_table(), np.int64(-2),
                                                        np.int32(-1))) == 6
        for dtype in (np.int8, np.uint8, np.int64):
            t = uniform_table(3, 0).astype(dtype)
            assert smith_waterman("ACGTA", "ACG", AlignParams(t, -2, -1)) == 9


class TestMatrixLoader:
    def test_blosum50_fixture_spot_values(self, blosum50):
        def s(a, b):
            return blosum50[ord(a) - 65, ord(b) - 65]

        assert s("A", "A") == 5
        assert s("W", "W") == 15
        assert s("H", "H") == 10
        assert s("A", "W") == -3 and s("W", "A") == -3

    def test_comments_and_star_columns_skipped(self):
        text = "# comment\n   A  C  *\nA  4 -1 -4\nC -1  9 -4\n* -4 -4  1\n"
        t = load_substitution_matrix(text)
        assert t[0, 0] == 4 and t[0, 2] == -1 and t[2, 2] == 9

    def test_headerless_text_rejected(self):
        with pytest.raises(DataError, match="header"):
            load_substitution_matrix("")

    @pytest.mark.parametrize("cell", ["x", "#2", "4.0", "3000000000"])
    def test_non_integer_score_rejected_with_its_line(self, cell):
        with pytest.raises(DataError, match=f"line 3: score '{cell}' is not a 32-bit"):
            load_substitution_matrix(f"# comment\n   A  C\nA  {cell} -1\nC -1  9\n")


def _db():
    return [
        SequenceRecord("a", "", "MKVLAWGHEE", family="F1"),
        SequenceRecord("b", "", "MKVLAWGHEQ", family="F1"),
        SequenceRecord("c", "", "PPPPPWWPPP", family="F2"),
        SequenceRecord("d", "", "PPPPPWWPPS", family="F2"),
    ]


class TestRetrieval:
    def test_exact_copy_ranks_first(self):
        db = _db() + [SequenceRecord("copy", "", "WYHHKRDEST", family="F1")]
        hits = align_topk(db, SequenceRecord("q", "", "WYHHKRDEST"), 3,
                          blosum62_params())
        assert hits[0].id == "copy"
        assert hits[0].rank == 1

    def test_self_id_excluded(self):
        hits = align_topk(_db(), SequenceRecord("a", "", "MKVLAWGHEE"), 10,
                          blosum62_params())
        assert "a" not in [h.id for h in hits]

    def test_k_larger_than_db_returns_all_sorted(self):
        hits = align_topk(_db(), SequenceRecord("q", "", "MKVLAWGHEE"), 100,
                          blosum62_params())
        assert len(hits) == 4
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_equal_scores_order_by_id(self):
        db = [
            SequenceRecord("y", "", "AAAA", family="F1"),
            SequenceRecord("x", "", "AAAA", family="F1"),
        ]
        hits = align_topk(db, SequenceRecord("q", "", "AAAA"), 2, blosum62_params())
        assert [h.id for h in hits] == ["x", "y"]

    def test_classify_majority(self):
        pred = align_classify(_db(), SequenceRecord("q", "", "MKVLAWGHEE"), 3,
                              blosum62_params())
        assert pred == "F1"

    def test_classify_tie_prefers_larger_score_sum(self):
        db = [
            SequenceRecord("a", "", "MKVLAWGHEE", family="F1"),
            SequenceRecord("c", "", "PPPPPWWPPP", family="F2"),
        ]
        pred = align_classify(db, SequenceRecord("q", "", "MKVLAWGHEE"), 2,
                              blosum62_params())
        assert pred == "F1"

    def test_empty_db_is_an_error(self):
        with pytest.raises(DataError):
            align_classify([], SequenceRecord("q", "", "MKV"), 3, blosum62_params())


PROTEIN = list("ACDEFGHIKLMNPQRSTVWY")
GAP_REGIMES = [(-11, -1), (-4, -1), (-1, -1), (0, 0)]


def _random_db(rng, lengths, letters=PROTEIN):
    """Records of the given lengths, ids shuffled against length order."""
    ids = rng.permutation(len(lengths))
    return [
        SequenceRecord(f"r{ids[i]:03d}", "", "".join(rng.choice(letters, n)),
                       family="F")
        for i, n in enumerate(lengths)
    ]


def _check_topk(db, query, p, oracles):
    """align_topk over the whole db equals every oracle, in (-score, id) order."""
    hits = align_topk(db, query, len(db), p)
    got = {h.id: h.score for h in hits}
    others = [rec for rec in db if rec.id != query.id]
    for oracle in oracles:
        want = {
            rec.id: oracle(query.residues, rec.residues, p.substitution,
                           p.gap_open, p.gap_extend)
            for rec in others
        }
        assert got == want
    assert [h.id for h in hits] == sorted(got, key=lambda i: (-got[i], i))
    assert [h.rank for h in hits] == list(range(1, len(others) + 1))
    return got


def _short_cases(rng):
    """Queries shorter and longer than every record of mixed-length dbs."""
    with_ones = _random_db(rng, [1, 1, 2, 3] + list(rng.integers(1, 31, 16)) + [30])
    no_short = _random_db(rng, list(rng.integers(5, 31, 16)) + [5])
    queries = [1, 2, 4, 17, 31, 45]
    for db in (with_ones, no_short):
        for n in queries:
            residues = "".join(rng.choice(PROTEIN, n))
            # the db's first record shares the query's id: it must be skipped
            yield db, SequenceRecord(db[0].id, "", residues)


class TestBatchedRetrievalMatchesOracles:
    @pytest.mark.parametrize("gaps", GAP_REGIMES)
    @pytest.mark.parametrize("table", ["blosum62", "blosum50"])
    def test_short_sequences_both_oracles(self, table, gaps, blosum50):
        rng = np.random.default_rng([len(table), -gaps[0], -gaps[1]])
        p = AlignParams(BLOSUM62 if table == "blosum62" else blosum50, *gaps)
        for db, query in _short_cases(rng):
            _check_topk(db, query, p, (reference_sw, rolling_sw))

    @pytest.mark.parametrize("gaps", GAP_REGIMES)
    @pytest.mark.parametrize("table", ["blosum62", "blosum50"])
    def test_long_sequences_rolling_oracle(self, table, gaps, blosum50):
        rng = np.random.default_rng([7, len(table), -gaps[0], -gaps[1]])
        p = AlignParams(BLOSUM62 if table == "blosum62" else blosum50, *gaps)
        lengths = [1] + list(np.floor(1.5 * 160 ** rng.random(40)).astype(int)) + [240]
        db = _random_db(rng, lengths)
        for n in (1, 60, 300):
            query = SequenceRecord("q", "", "".join(rng.choice(PROTEIN, n)))
            _check_topk(db, query, p, (rolling_sw,))
        a, b = db[-1].residues, query.residues
        assert smith_waterman(a, b, p) == rolling_sw(a, b, p.substitution, *gaps)

    @pytest.mark.parametrize("cells", [1, 64, 1000])
    def test_block_budget_does_not_change_scores(self, cells, monkeypatch):
        # small budgets: many blocks, records longer than a whole block
        monkeypatch.setattr(align, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(cells)
        db = _random_db(rng, [1, 2, 90] + list(rng.integers(1, 120, 30)))
        query = SequenceRecord("q", "", "".join(rng.choice(PROTEIN, 70)))
        _check_topk(db, query, blosum62_params(-4, -1), (rolling_sw,))

    def test_blocks_respect_the_cell_budget(self, monkeypatch):
        shapes = []
        kernel = align._sw_lanes

        def recording(rows, lanes, p):
            shapes.append(lanes.shape)
            return kernel(rows, lanes, p)

        monkeypatch.setattr(align, "_sw_lanes", recording)
        rng = np.random.default_rng(2)
        lengths = list(rng.integers(1, 300, 200)) + [align._BLOCK_CELLS + 5]
        db = _random_db(rng, lengths)
        align_topk(db, SequenceRecord("q", "", "MKV"), 1, blosum62_params())
        assert sum(lanes for lanes, _ in shapes) == len(db)
        assert len(shapes) > 1
        for lanes, n in shapes:
            assert lanes * n <= align._BLOCK_CELLS or lanes == 1

    def test_scores_beyond_int32_take_the_int64_path(self):
        t = uniform_table(2**26, -(2**25)).astype(np.int64)
        p = AlignParams(t, gap_open=-(2**26), gap_extend=-(2**24))
        rng = np.random.default_rng(9)
        base = "".join(rng.choice(list("ACGT"), 60))
        db = _random_db(rng, [1, 7, 33, 60], letters=list("ACGT"))
        db.append(SequenceRecord("twin", "", base[:50] + "GG" + base[50:]))
        got = _check_topk(db, SequenceRecord("q", "", base), p,
                          (reference_sw, rolling_sw))
        assert max(got.values()) > 2**31

    def test_overflowing_table_rejected(self):
        p = AlignParams(uniform_table().astype(np.int64) * 2**60, -1, -1)
        with pytest.raises(ConfigError, match="overflow"):
            smith_waterman("ACGT", "ACGT", p)

    def test_equal_scores_order_by_id_across_blocks(self, monkeypatch):
        monkeypatch.setattr(align, "_BLOCK_CELLS", 8)
        db = [SequenceRecord(i, "", seq) for i, seq in
              [("m", "WWWWWWWWWW"), ("c", "WW"), ("x", "WWG"), ("a", "GWW"),
               ("q", "WW")]]
        hits = align_topk(db, SequenceRecord("q", "", "WW"), 3, blosum62_params())
        assert [(h.id, h.score) for h in hits] == [("a", 22.0), ("c", 22.0),
                                                    ("m", 22.0)]
