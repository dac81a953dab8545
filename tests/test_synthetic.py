"""Tests for the synthetic corpora."""

import numpy as np
import pytest

from seqvec.sequences import SequenceRecord
from seqvec.synthetic import STANDARD_AMINO_ACIDS, markov_family_corpus, motif_order_corpus
from seqvec.tokenizer import kmers_overlapping


def _ref_markov_family_corpus(n_families, per_family, length, seed, concentration,
                              alphabet):
    """The per-residue loop: one member at a time, one searchsorted a residue."""
    rng = np.random.default_rng(seed)
    n_letters = len(alphabet)
    records = []
    for f in range(n_families):
        start_cum = np.cumsum(rng.dirichlet(np.full(n_letters, concentration)))
        rows_cum = np.cumsum(rng.dirichlet(np.full(n_letters, concentration),
                                           size=n_letters), axis=1)
        for i in range(per_family):
            u = rng.random(length)
            state = min(int(np.searchsorted(start_cum, u[0], side="right")),
                        n_letters - 1)
            seq = [alphabet[state]]
            for pos in range(1, length):
                state = min(int(np.searchsorted(rows_cum[state], u[pos], side="right")),
                            n_letters - 1)
                seq.append(alphabet[state])
            records.append(SequenceRecord(f"FAM{f}_{i:03d}", f"synthetic member of FAM{f}",
                                          "".join(seq), f"FAM{f}"))
    return records


class TestMarkovFamilyCorpus:
    @pytest.mark.parametrize("n_families, per_family, length, seed, concentration, alphabet", [
        (5, 20, 100, 0, 0.2, STANDARD_AMINO_ACIDS),
        (3, 7, 1, 2, 0.2, STANDARD_AMINO_ACIDS),
        (2, 9, 60, 3, 0.01, STANDARD_AMINO_ACIDS),
        (3, 6, 40, 4, 0.5, "ACGT"),
        (1, 1, 5, 5, 0.01, "ACGT"),
    ])
    def test_matches_the_per_residue_loop(self, n_families, per_family, length, seed,
                                          concentration, alphabet):
        got = markov_family_corpus(n_families, per_family, length, seed, concentration,
                                   alphabet)
        assert got == _ref_markov_family_corpus(n_families, per_family, length, seed,
                                                concentration, alphabet)
        assert len(got) == n_families * per_family
        assert all(len(r.residues) == length and set(r.residues) <= set(alphabet)
                   for r in got)


class TestMotifOrderCorpus:
    def test_pure_function_of_the_arguments(self):
        assert motif_order_corpus(seed=3) == motif_order_corpus(seed=3)
        assert motif_order_corpus(seed=3) != motif_order_corpus(seed=4)

    def test_families_hold_the_same_motifs_in_distinct_orders(self):
        records = motif_order_corpus(per_family=20, seed=1)
        assert [r.family for r in records] == [f"FAM{f}" for f in range(4)
                                               for _ in range(20)]
        lengths = [len(r.residues) for r in records]
        assert min(lengths) >= 4 * 8 + 5 * 2 and max(lengths) <= 4 * 8 + 5 * 5
        # the motifs are the 8-mers every member holds; their order names the family
        shared = set.intersection(*({r.residues[i:i + 8] for i in range(len(r.residues) - 7)}
                                    for r in records))
        assert len(shared) >= 4
        orders = {}
        for r in records:
            order = tuple(sorted(shared, key=lambda m: r.residues.find(m)))
            assert orders.setdefault(r.family, order) == order
        assert len(set(orders.values())) == 4

    def test_no_three_mer_belongs_to_one_family(self):
        # every 3-mer that all members of a family hold, all members of every
        # family hold: the motifs' own 3-mers, and none across a boundary
        records = motif_order_corpus(per_family=30, seed=2)
        held = {}
        for r in records:
            kmers = set(kmers_overlapping(r.residues, 3))
            held[r.family] = held.get(r.family, kmers) & kmers
        everywhere = set.intersection(*held.values())
        assert all(kmers == everywhere for kmers in held.values())
        assert len(everywhere) >= 4 * (8 - 2) - 2  # a motif may repeat a 3-mer
