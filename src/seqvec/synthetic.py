"""Synthetic protein-like corpora for evaluation and demos.

``markov_family_corpus`` gives each family its own order-1 Markov chain
over the 20 standard amino acids, with transition rows drawn from a
Dirichlet distribution. Smaller concentration values make the rows
spikier, which gives the families more distinctive kmer statistics (and
more internally repeated motifs). Kmer counts hold those transition
statistics in full, so a bag of kmers classifies these families as well
as any trained model.

``motif_order_corpus`` is the task a bag of kmers cannot solve: every
family holds the same motifs, in its own order, between random gaps.
Only the kmers that span a motif boundary differ between families, and
with gaps of two residues or more no kmer of length 3 spans two motifs,
so the family is in the order of the motifs, not in their counts.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, check_integer
from .sequences import SequenceRecord

__all__ = ["markov_family_corpus", "motif_order_corpus", "STANDARD_AMINO_ACIDS"]

STANDARD_AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"

# motif_order_corpus: four families, four motifs of eight letters, gaps of 2..5
_FAMILIES, _MOTIFS, _MOTIF_LENGTH, _GAP_MIN, _GAP_MAX = 4, 4, 8, 2, 5


def markov_family_corpus(
    n_families: int = 5,
    per_family: int = 200,
    length: int = 100,
    seed: int = 0,
    concentration: float = 0.2,
    alphabet: str = STANDARD_AMINO_ACIDS,
) -> list[SequenceRecord]:
    """Generate labeled sequences from family-specific order-1 chains.

    Family f is named ``FAMf`` and its members ``FAMf_i``. The initial
    letter distribution and every transition row are independent
    Dirichlet(concentration) draws per family, all from one seeded
    generator, so the corpus is a pure function of the arguments. A
    family's members are drawn together: one uniform per residue, member
    by member, then one chain step per position for all of them.
    """
    check_integer("n_families", n_families, 1)
    check_integer("per_family", per_family, 1)
    check_integer("length", length, 1)
    if concentration <= 0:
        raise ConfigError("concentration must be positive")
    check_integer("seed", seed)
    rng = np.random.default_rng(seed)
    n_letters = len(alphabet)
    letters = np.frombuffer(alphabet.encode("ascii"), dtype=np.uint8)

    records = []
    for f in range(n_families):
        start = rng.dirichlet(np.full(n_letters, concentration))
        rows = rng.dirichlet(np.full(n_letters, concentration), size=n_letters)
        start_cum = np.cumsum(start)
        rows_cum = np.cumsum(rows, axis=1)
        fam = f"FAM{f}"
        u = rng.random((per_family, length))
        states = np.empty((per_family, length), dtype=np.intp)
        # a step is searchsorted(cum, u, 'right'): the entries <= u, counted
        # (the cumsums are nondecreasing), clipped at the cumsum's top edge
        states[:, 0] = np.minimum((start_cum <= u[:, 0, None]).sum(axis=1), n_letters - 1)
        for pos in range(1, length):
            step = (rows_cum[states[:, pos - 1]] <= u[:, pos, None]).sum(axis=1)
            states[:, pos] = np.minimum(step, n_letters - 1)
        for i, seq in enumerate(letters[states]):
            records.append(
                SequenceRecord(
                    id=f"{fam}_{i:03d}",
                    description=f"synthetic member of {fam}",
                    residues=seq.tobytes().decode("ascii"),
                    family=fam,
                )
            )
    return records


def motif_order_corpus(per_family: int = 100, seed: int = 0) -> list[SequenceRecord]:
    """Generate labeled sequences that share motifs and differ in their order.

    Four random motifs of eight letters are drawn once. Each of the four
    families gets its own order of them. A member is a gap, then each motif
    in its family's order followed by a gap; every gap length is uniform in
    2..5 and every gap letter uniform over the standard amino acids, about
    49 letters a sequence. Family f is named ``FAMf`` and its members
    ``FAMf_i``; the corpus is a pure function of the arguments.
    """
    check_integer("per_family", per_family, 1)
    check_integer("seed", seed)
    rng = np.random.default_rng(seed)
    letters = np.frombuffer(STANDARD_AMINO_ACIDS.encode("ascii"), dtype=np.uint8)
    motifs = letters[rng.integers(0, len(letters), (_MOTIFS, _MOTIF_LENGTH))]
    orders: list[tuple[int, ...]] = []
    while len(orders) < _FAMILIES:
        order = tuple(rng.permutation(_MOTIFS).tolist())
        if order not in orders:
            orders.append(order)

    records = []
    for f, order in enumerate(orders):
        fam = f"FAM{f}"
        for i in range(per_family):
            widths = rng.integers(_GAP_MIN, _GAP_MAX + 1, _MOTIFS + 1)
            parts = [letters[rng.integers(0, len(letters), widths[0])]]
            for m, width in zip(order, widths[1:]):
                parts += [motifs[m], letters[rng.integers(0, len(letters), width)]]
            records.append(
                SequenceRecord(
                    id=f"{fam}_{i:03d}",
                    description=f"synthetic member of {fam}",
                    residues=np.concatenate(parts).tobytes().decode("ascii"),
                    family=fam,
                )
            )
    return records
