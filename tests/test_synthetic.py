"""Tests for the synthetic corpora."""

from seqvec.synthetic import motif_order_corpus
from seqvec.tokenizer import kmers_overlapping


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
