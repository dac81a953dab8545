"""Local-alignment retrieval baseline.

Affine-gap Smith-Waterman, score only: a gap of length L costs
gap_open + (L - 1) * gap_extend (both nonpositive, open <= extend).
No traceback is produced; retrieval only needs ranks.

One DP kernel, ``_sw_lanes``, scores a run of query residues (the DP
rows) against a block of database sequences at once, one lane per
sequence, in the inter-sequence style of SWIPE (Rognes 2011, BMC
Bioinformatics 12:221). The three-matrix recurrence is collapsed to two
rolling rows, a vertical-gap row and a prefix-max scan along each lane
for horizontal gaps, each an integer operation over the whole
(lanes, columns) block. ``align_topk`` sorts the database by length and
cuts it into blocks of at most ``_BLOCK_CELLS`` padded cells, which also
bounds the kernel's memory however large the database; ``smith_waterman``
is the one-lane case, with the shorter sequence as the rows.

Lanes shorter than their block are right-padded with a sentinel letter
that scores a large negative value against everything, so no diagonal
step enters padding and, gaps adding nothing, no padding cell scores
above the real cells of its lane. Real cells read only cells to their
left and above, never padding, so the block's per-lane maximum is the
lane's own score. Lanes are int32 when a bound on every DP
value, computed from the table, the gaps and the two lengths, fits with
room for the sentinel, and int64 otherwise, so scores are exact integers.

The built-in substitution table is BLOSUM62 in half-bit units for the 20
standard amino acids plus B and Z, extended to the full A-Z range by the
usual conventions: X scores -1 against everything (including itself),
U scores as C, O scores as K, and J (I-or-L) takes the rounded mean of
the I and L scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import ConfigError, DataError, check_integer
from .knn import NeighborResult, _ranked, majority_vote
from .sequences import SequenceRecord, _as_text

__all__ = [
    "AlignParams",
    "BLOSUM62",
    "blosum62_params",
    "load_substitution_matrix",
    "smith_waterman",
    "align_topk",
    "align_classify",
]

# Canonical half-bit BLOSUM62 over the 20 standard residues plus the
# B (N/D) and Z (Q/E) ambiguity codes, as distributed with BLAST.
_BLOSUM62_CORE = """
   A  R  N  D  C  Q  E  G  H  I  L  K  M  F  P  S  T  W  Y  V  B  Z
A  4 -1 -2 -2  0 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -3 -2  0 -2 -1
R -1  5  0 -2 -3  1  0 -2  0 -3 -2  2 -1 -3 -2 -1 -1 -3 -2 -3 -1  0
N -2  0  6  1 -3  0  0  0  1 -3 -3  0 -2 -3 -2  1  0 -4 -2 -3  3  0
D -2 -2  1  6 -3  0  2 -1 -1 -3 -4 -1 -3 -3 -1  0 -1 -4 -3 -3  4  1
C  0 -3 -3 -3  9 -3 -4 -3 -3 -1 -1 -3 -1 -2 -3 -1 -1 -2 -2 -1 -3 -3
Q -1  1  0  0 -3  5  2 -2  0 -3 -2  1  0 -3 -1  0 -1 -2 -1 -2  0  3
E -1  0  0  2 -4  2  5 -2  0 -3 -3  1 -2 -3 -1  0 -1 -3 -2 -2  1  4
G  0 -2  0 -1 -3 -2 -2  6 -2 -4 -4 -2 -3 -3 -2  0 -2 -2 -3 -3 -1 -2
H -2  0  1 -1 -3  0  0 -2  8 -3 -3 -1 -2 -1 -2 -1 -2 -2  2 -3  0  0
I -1 -3 -3 -3 -1 -3 -3 -4 -3  4  2 -3  1  0 -3 -2 -1 -3 -1  3 -3 -3
L -1 -2 -3 -4 -1 -2 -3 -4 -3  2  4 -2  2  0 -3 -2 -1 -2 -1  1 -4 -3
K -1  2  0 -1 -3  1  1 -2 -1 -3 -2  5 -1 -3 -1  0 -1 -3 -2 -2  0  1
M -1 -1 -2 -3 -1  0 -2 -3 -2  1  2 -1  5  0 -2 -1 -1 -1 -1  1 -3 -1
F -2 -3 -3 -3 -2 -3 -3 -3 -1  0  0 -3  0  6 -4 -2 -2  1  3 -1 -3 -3
P -1 -2 -2 -1 -3 -1 -1 -2 -2 -3 -3 -1 -2 -4  7 -1 -1 -4 -3 -2 -2 -1
S  1 -1  1  0 -1  0  0  0 -1 -2 -2  0 -1 -2 -1  4  1 -3 -2 -2  0  0
T  0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  1  5 -2 -2  0 -1 -1
W -3 -3 -4 -4 -2 -2 -3 -2 -2 -3 -2 -3 -1  1 -4 -3 -2 11  2 -3 -4 -3
Y -2 -2 -2 -3 -2 -1 -2 -3  2 -1 -1 -2 -1  3 -3 -2 -2  2  7 -1 -3 -2
V  0 -3 -3 -3 -1 -2 -2 -3 -3  3  1 -2  1 -1 -2 -2  0 -3 -1  4 -3 -2
B -2 -1  3  4 -3  0  1 -1  0 -3 -4  0 -3 -3 -2  0 -1 -4 -3 -3  4  1
Z -1  0  0  1 -3  3  4 -2  0 -3 -3  1 -1 -3 -1  0 -1 -3 -2 -2  1  4
"""


def _parse_matrix_text(text: str) -> np.ndarray:
    table = np.zeros((26, 26), dtype=np.int32)
    header: list[int] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            header = []
            for p in parts:
                if len(p) == 1 and "A" <= p.upper() <= "Z":
                    header.append(ord(p.upper()) - 65)
                else:
                    header.append(-1)  # '*' and friends: ignored
            continue
        row = parts[0].upper()
        if len(row) != 1 or not ("A" <= row <= "Z"):
            continue
        r = ord(row) - 65
        for col, value in zip(header, parts[1:]):
            if col >= 0:
                try:
                    table[r, col] = int(value)
                except (ValueError, OverflowError):
                    raise DataError(f"line {lineno}: score {value!r} is not a "
                                    "32-bit integer") from None
    if header is None:
        raise DataError("substitution matrix text has no header row")
    return table


def _build_blosum62() -> np.ndarray:
    t = _parse_matrix_text(_BLOSUM62_CORE)
    defined = [ord(c) - 65 for c in "ARNDCQEGHILKMFPSTWYVBZ"]
    X, J, U, O_, C, K, I, L = (ord(c) - 65 for c in "XJUOCKIL")
    for a in defined + [X]:
        t[X, a] = t[a, X] = -1
    # J scores: rounded mean of the I and L rows (half toward +inf)
    for a in defined + [X]:
        t[J, a] = t[a, J] = int(np.floor((int(t[I, a]) + int(t[L, a])) / 2 + 0.5))
    t[J, J] = int(np.floor((t[I, I] + t[I, L] + t[L, I] + t[L, L]) / 4 + 0.5))
    for a in defined + [X, J]:
        t[U, a] = t[a, U] = t[C, a]
        t[O_, a] = t[a, O_] = t[K, a]
    t[U, U] = t[C, C]
    t[O_, O_] = t[K, K]
    t[U, O_] = t[O_, U] = t[C, K]
    return t


#: 26x26 integer score table indexed by letter (row/col ord(ch) - ord('A')).
BLOSUM62 = _build_blosum62()
BLOSUM62.setflags(write=False)


@dataclass(frozen=True)
class AlignParams:
    substitution: np.ndarray
    gap_open: int = -11
    gap_extend: int = -1

    def __post_init__(self):
        sub = np.asarray(self.substitution)
        if sub.shape != (26, 26):
            raise ConfigError("substitution table must be 26x26 (letters A-Z)")
        if sub.dtype.kind not in "iu":
            raise ConfigError("substitution table must hold integers")
        if not np.array_equal(sub, sub.T):
            raise ConfigError("substitution table must be symmetric")
        check_integer("gap_open", self.gap_open, None)
        check_integer("gap_extend", self.gap_extend, None)
        if not self.gap_open <= self.gap_extend <= 0:
            raise ConfigError(
                "gap penalties must satisfy gap_open <= gap_extend <= 0"
            )
        object.__setattr__(self, "substitution", sub)


def blosum62_params(
    gap_open: int = AlignParams.gap_open, gap_extend: int = AlignParams.gap_extend
) -> AlignParams:
    """BLOSUM62 with the BLAST protein defaults (open -11, extend -1)."""
    return AlignParams(BLOSUM62, gap_open, gap_extend)


def load_substitution_matrix(data: str | bytes | IO) -> np.ndarray:
    """Read a whitespace score table with letter header row and column.

    Lines starting with '#' are comments; header entries that are not
    single letters (such as '*') are skipped. Letter pairs absent from
    the file score 0.
    """
    return _parse_matrix_text(_as_text(data))


#: Cells (lanes x padded columns) one block scores at a time. The kernel
#: holds about 35 integers per cell (26 of them the block's query profile),
#: so this caps its working memory near 1 MB in int32 (2 MB in int64),
#: whatever the database size; larger blocks ran slower, out of cache.
_BLOCK_CELLS = 8192

#: Letter code of the right padding; it scores the dtype's sentinel.
_PAD = 26


def _encode(residues: str, what: str) -> np.ndarray:
    if not residues:
        raise DataError(f"{what} sequence is empty")
    if not residues.isascii():  # before upper(), which maps 'ß' to 'SS'
        bad = next(ch for ch in residues if not ch.isascii())
        raise DataError(f"{what} sequence contains non-ASCII character {bad!r}")
    codes = np.frombuffer(residues.upper().encode("ascii"), dtype=np.uint8).astype(
        np.intp
    ) - 65
    if codes.min() < 0 or codes.max() > 25:
        bad = residues[int(np.flatnonzero((codes < 0) | (codes > 25))[0])]
        raise DataError(f"{what} sequence contains non-letter character {bad!r}")
    return codes


def _sw_lanes(rows: np.ndarray, lanes: np.ndarray, p: AlignParams) -> np.ndarray:
    """Best local score of the codes ``rows`` against each row of ``lanes``.

    ``lanes`` is a (lanes, n) code matrix right-padded with ``_PAD``. Column
    j of every DP row is stored plus ``-gap_extend * j``: the horizontal-gap
    ladder then cancels, so E is a plain prefix max of B along each lane.
    """
    n_lanes, n = lanes.shape
    open_, ext = int(p.gap_open), int(p.gap_extend)
    # every DP value lies within +-top; the sentinel lies below -top, with
    # room in the dtype for a gap penalty added to it
    top = (int(np.abs(p.substitution).max()) - open_ - ext) * (len(rows) + n + 1)
    if top < 2**30:
        dt, sentinel = np.int32, -(2**30)
    elif top < 2**62:
        dt, sentinel = np.int64, -(2**62)
    else:
        raise ConfigError("alignment scores would overflow 64-bit integers")
    shift = -ext * np.arange(1, n + 1, dtype=dt)  # the zero floor, shifted
    # dtype scalars: a Python int costs a conversion on every ufunc call
    o, e, c = dt(open_), dt(ext), dt(open_ - ext)
    letters, row_letter = np.unique(rows, return_inverse=True)
    table = np.full((len(letters), _PAD + 1), sentinel, dtype=dt)
    table[:, :_PAD] = p.substitution[letters]
    table[:, :_PAD] -= ext
    profile = table[:, lanes]  # (distinct row letters, lanes, n)

    # two rolling H rows, each seen as (columns 0..n-1, columns 1..n); column
    # 0 is the empty prefix, 0, and row 0 scores 0 everywhere
    H, Hn = np.zeros((2, n_lanes, n + 1), dt)
    H[:, 1:] = shift
    cur, nxt = (H[:, :-1], H[:, 1:]), (Hn[:, :-1], Hn[:, 1:])
    F = np.full((n_lanes, n), sentinel, dt)
    B = np.empty_like(F)
    D = np.empty_like(F)
    E = np.empty_like(F)
    best = np.zeros_like(F)
    by_letter = list(profile)
    for r in row_letter.tolist():
        diag, up = cur
        np.add(diag, by_letter[r], out=D)
        np.add(F, e, out=F)
        np.add(up, o, out=E)
        np.maximum(F, E, out=F)
        np.maximum(D, F, out=B)
        np.maximum(B, shift, out=B)
        # E[j] = open - ext + max B[l] over l < j; taking l <= j (and no
        # gap after column 0) changes no H: open <= ext and H >= 0
        np.maximum.accumulate(B, axis=1, out=E)
        np.add(E, c, out=E)
        np.maximum(B, E, out=nxt[1])
        np.maximum(best, nxt[1], out=best)
        cur, nxt = nxt, cur
    return (best - shift).max(axis=1)


def smith_waterman(a: str, b: str, p: AlignParams) -> int:
    """Best local alignment score of ``a`` vs ``b`` (floored at zero)."""
    ca = _encode(a, "first")
    cb = _encode(b, "second")
    if len(ca) > len(cb):
        ca, cb = cb, ca  # table is symmetric; fewer rows, wider columns
    return int(_sw_lanes(ca, cb[None, :], p)[0])


def _score_all(query: str, seqs: Sequence[str], p: AlignParams) -> np.ndarray:
    """Local alignment scores of ``query`` against every sequence of ``seqs``.

    Sequences are sorted by length and cut into blocks of at most
    ``_BLOCK_CELLS`` padded cells (a longer sequence gets a block alone).
    """
    rows = _encode(query, "query")
    order = sorted(range(len(seqs)), key=lambda i: len(seqs[i]))
    lens = np.array([len(seqs[i]) for i in order], dtype=np.intp)
    if lens[0] == 0:
        raise DataError("database sequence is empty")
    codes = _encode("".join(seqs[i] for i in order), "database")
    ends = np.cumsum(lens)
    scores = np.empty(len(seqs), dtype=np.int64)
    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and (stop + 1 - start) * lens[stop] <= _BLOCK_CELLS:
            stop += 1
        block = lens[start:stop]
        lanes = np.full((len(block), block[-1]), _PAD, dtype=np.intp)
        lanes[np.arange(block[-1]) < block[:, None]] = codes[
            ends[start] - block[0]:ends[stop - 1]
        ]
        scores[order[start:stop]] = _sw_lanes(rows, lanes, p)
        start = stop
    return scores


def align_topk(
    db: Sequence[SequenceRecord],
    query: SequenceRecord,
    k: int,
    p: AlignParams,
) -> list[NeighborResult]:
    """Exact top-k database records by local alignment score, descending.

    Ties order by smaller id; a record sharing the query's id is skipped.
    """
    check_integer("k", k, 1)
    if not db:
        raise DataError("alignment database is empty")
    others = [rec for rec in db if rec.id != query.id]
    if not others:
        return []
    scores = _score_all(query.residues, [rec.residues for rec in others], p)
    return _ranked([rec.id for rec in others], scores, k, descending=True)


def align_classify(
    db: Sequence[SequenceRecord],
    query: SequenceRecord,
    k: int,
    p: AlignParams,
    labels: dict[str, str] | None = None,
) -> str:
    """Family of the query by majority vote over its top-k alignments.

    Labels default to the database records' own family fields; vote ties
    resolve toward the larger summed alignment score.
    """
    if labels is None:
        labels = {rec.id: rec.family for rec in db if rec.family is not None}
    hits = align_topk(db, query, k, p)
    return majority_vote(hits, labels, similarity=True)
