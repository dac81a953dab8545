"""``align_topk`` against ``reference_sw`` on drawn databases.

Kept apart from test_align.py: bench/run.py executes that module for its
oracle, and importing hypothesis there would add to the peak RSS of every
benchmark workload.
"""

import pytest
from hypothesis import given, settings, strategies as st

from seqvec import align
from seqvec.align import BLOSUM62, AlignParams, align_topk
from seqvec.sequences import SequenceRecord
from tests.test_align import reference_sw, uniform_table


@st.composite
def _retrieval_cases(draw):
    """A query and a database of 1-12 records over three letters, so that
    scores tie, some records sharing the query's id; gap penalties, a
    table, k and a block budget."""
    residues = st.text(st.sampled_from("ACW"), min_size=1, max_size=40)
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations([f"r{i:02d}" for i in range(n)]))
    shares = draw(st.lists(st.sampled_from([False, False, True]), min_size=n, max_size=n))
    db = [SequenceRecord("q" if share else rid, "", draw(residues))
          for rid, share in zip(ids, shares)]
    extend = draw(st.integers(-3, 0))
    table = draw(st.sampled_from([uniform_table(), uniform_table(3, -2), BLOSUM62]))
    p = AlignParams(table, extend + draw(st.integers(-8, 0)), extend)
    cells = draw(st.sampled_from([1, 5, 40, align._BLOCK_CELLS]))
    return db, SequenceRecord("q", "", draw(residues)), p, draw(st.integers(1, 14)), cells


class TestRetrievalProperty:
    @settings(max_examples=150)
    @given(_retrieval_cases())
    def test_hits_are_the_top_k_of_the_reference_scores(self, case):
        db, query, p, k, cells = case
        score = {rec.id: reference_sw(query.residues, rec.residues, p.substitution,
                                      p.gap_open, p.gap_extend)
                 for rec in db if rec.id != query.id}
        want = sorted(score, key=lambda i: (-score[i], i))[:k]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(align, "_BLOCK_CELLS", cells)
            hits = align_topk(db, query, k, p)
        assert [(h.id, h.score, h.rank) for h in hits] == [
            (i, float(score[i]), rank) for rank, i in enumerate(want, start=1)]
