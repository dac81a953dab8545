"""Kmer tokenization and vocabulary construction.

A sequence becomes one or more token documents:

* overlapping mode emits every kmer at stride 1, one document per
  sequence ("ACGTTA", k=3 -> ACG CGT GTT TTA);
* non-overlapping mode emits k phase-shifted readings, each tiling the
  sequence with disjoint kmers ("QWERTYQWERTY", k=3 -> "QWE RTY QWE RTY",
  "WER TYQ WER", "ERT YQW ERT"). All k phase documents of one sequence
  share a document tag, so training learns a single vector per sequence.

The vocabulary assigns dense integer ids in first-occurrence order,
drops tokens rarer than ``min_count`` (removing their occurrences from
the documents), and carries the cumulative count^0.75 table used to draw
negative samples plus, built on first use, its guide table and a Huffman
coding of the tokens.

``TokenizerConfig.phases`` is the only split rule and ``Vocabulary.encode``
the only kmer -> id rule, for corpora and inference queries alike.
``build_corpus`` and ``read_corpus`` share one assembly (``_assemble``):
count, build the vocabulary, encode, drop empty documents, and tag the
surviving sequences densely; ``Corpus.skipped`` lists the sequences left
without a document.
"""

from __future__ import annotations

import heapq
import io
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Sequence

import numpy as np

from .errors import ConfigError, DataError, check_integer
from .sequences import SequenceRecord, _as_text

__all__ = [
    "TokenizerConfig",
    "TokenizedDoc",
    "Vocabulary",
    "HuffmanCoding",
    "Corpus",
    "kmers_overlapping",
    "kmers_nonoverlapping",
    "build_corpus",
    "build_vocabulary",
    "subsample_keep_probs",
    "subsample_filter",
    "build_huffman",
    "guide_table",
    "write_corpus",
    "read_corpus",
]

MODES = ("nonoverlap", "overlap")

#: Longest kmer or sequence id, in UTF-8 bytes, that a model file can hold.
MAX_TEXT_BYTES = 0xFFFF

#: Largest kmer length a model file can hold (a u32 field).
MAX_K = 2**32 - 1

#: Exponent flattening the unigram distribution for negative sampling.
NEGATIVE_EXPONENT = 0.75


@dataclass(frozen=True)
class TokenizerConfig:
    k: int
    mode: str = "nonoverlap"

    def __post_init__(self):
        check_integer("kmer length", self.k, 1, MAX_K)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")

    def phases(self, residues: str) -> list[list[str]]:
        """The kmer documents of one sequence: a single overlapping reading,
        or the k non-overlapping phase readings, phase p holding the kmers
        that start at p, p + k, ...; none when a reading would hold no kmer."""
        k = self.k
        stride = 1 if self.mode == "overlap" else k
        last = len(residues) - k  # where the last kmer starts
        if last < stride - 1:  # the last reading, the shortest, would be empty
            return []
        return [[residues[i : i + k] for i in range(p, last + 1, stride)]
                for p in range(stride)]


@dataclass(frozen=True)
class TokenizedDoc:
    """One token document: a tag identifying the source sequence, the
    phase offset it was read at (0 in overlapping mode), and its token ids."""

    doc_tag: int
    phase: int
    tokens: np.ndarray  # int32, non-empty


@dataclass
class HuffmanCoding:
    """Per-token Huffman code bits and the inner-node path that spells them.

    ``paths[t][i]`` is the inner-node index whose sigmoid decision consumes
    ``codes[t][i]``; paths run root to leaf parent. Inner nodes are numbered
    in creation (merge) order, so the root is node ``n_inner - 1``.
    ``targets[t]`` (float32 ``1 - bit``) are the code bits as the
    hierarchical softmax labels its path nodes, derived once here rather
    than per objective. So are the padded tables a plan gathers from:
    row t of ``path_table`` (intp) and ``target_table`` (float32) holds
    ``paths[t]`` and ``targets[t]`` in its first ``lengths[t]`` slots and
    node 0 with label 0 after them, out to the longest path.
    """

    codes: list[np.ndarray]  # uint8 bit arrays
    paths: list[np.ndarray]  # int32 inner-node indices
    n_inner: int
    targets: list[np.ndarray] = field(init=False, repr=False)
    lengths: np.ndarray = field(init=False, repr=False)
    path_table: np.ndarray = field(init=False, repr=False)
    target_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.targets = [np.float32(1.0) - c.astype(np.float32) for c in self.codes]
        self.lengths = np.array([len(p) for p in self.paths], dtype=np.intp)
        scored = np.arange(self.lengths.max()) < self.lengths[:, None]
        self.path_table = np.zeros(scored.shape, dtype=np.intp)
        self.path_table[scored] = np.concatenate(self.paths)
        self.target_table = np.zeros(scored.shape, dtype=np.float32)
        self.target_table[scored] = np.concatenate(self.targets)


@dataclass
class Vocabulary:
    tokens: list[str]
    counts: np.ndarray  # int64, aligned with tokens
    min_count: int
    total: int = field(init=False)
    index: dict[str, int] = field(init=False, repr=False)
    sampling_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if len(self.tokens) != len(self.counts):
            raise ConfigError("tokens and counts length mismatch")
        if len(self.tokens) and int(self.counts.min()) < max(self.min_count, 1):
            raise ConfigError("vocabulary contains tokens below min_count")
        self.total = int(self.counts.sum())
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ConfigError("duplicate token strings in vocabulary")
        weights = self.counts.astype(np.float64) ** NEGATIVE_EXPONENT
        cum = np.cumsum(weights)
        self.sampling_table = cum / cum[-1] if len(cum) else cum

    def __len__(self) -> int:
        return len(self.tokens)

    def token_frequencies(self) -> np.ndarray:
        """Per-token corpus frequency count/total."""
        return self.counts / self.total

    @cached_property
    def guide(self) -> np.ndarray:
        """The guide table of ``sampling_table`` (``guide_table``), built on
        first use."""
        return guide_table(self.sampling_table)

    def encode(self, kmers: Sequence[str]) -> np.ndarray:
        """The int32 token ids of ``kmers``; kmers not in the vocabulary
        are dropped."""
        index = self.index
        return np.array([index[km] for km in kmers if km in index], dtype=np.int32)

    @cached_property
    def huffman(self) -> HuffmanCoding:
        """The Huffman coding of the tokens, built on first use."""
        return build_huffman(self)


def kmers_overlapping(residues: str, k: int) -> list[str]:
    """All kmers of ``residues`` at stride 1, in source order.

    Yields ``len(residues) - k + 1`` kmers; consecutive outputs overlap in
    k-1 letters. Raises DataError when the sequence is shorter than k.
    """
    readings = TokenizerConfig(k, "overlap").phases(residues)
    if not readings:
        raise DataError(
            f"sequence of length {len(residues)} is shorter than k={k}"
        )
    return readings[0]


def kmers_nonoverlapping(residues: str, k: int) -> list[list[str]]:
    """The k phase readings of ``residues``, each tiled by disjoint kmers.

    Phase p starts at offset p and drops any trailing partial kmer, so it
    holds floor((L - p) / k) kmers. Raises DataError when the last phase
    would hold none.
    """
    readings = TokenizerConfig(k).phases(residues)
    if not readings:
        raise DataError(
            f"sequence of length {len(residues)} too short for {k} phases "
            f"(phase {k - 1} would hold no kmer)"
        )
    return readings


@dataclass
class Corpus:
    """Token documents and their vocabulary, the settings that split them,
    the kept sequence ids (aligned with doc tags) and, in input order, the
    ids of the input sequences that own no document: too short for
    ``TokenizerConfig.phases``, or with every kmer below ``min_count``."""

    docs: list[TokenizedDoc]
    vocab: Vocabulary
    tokenizer: TokenizerConfig
    doc_ids: list[str]
    skipped: list[str]


def build_vocabulary(counts: Counter[str] | dict[str, int],
                     min_count: int = 1) -> Vocabulary:
    """Vocabulary over ``counts`` with tokens below ``min_count`` removed,
    in the dict's iteration order (first-occurrence order when the counts
    come from a corpus scan)."""
    check_integer("min_count", min_count, 1)
    kept = [t for t in counts if counts[t] >= min_count]
    return Vocabulary(kept, np.array([counts[t] for t in kept], dtype=np.int64),
                      min_count=min_count)


def _assemble(raw: Sequence[tuple[int, int, list[str]]], min_count: int
              ) -> tuple[list[TokenizedDoc], Vocabulary, list[int]]:
    """Documents, vocabulary and kept keys from ``(key, phase, kmers)``.

    Kmers are counted in first-occurrence order and encoded against the
    vocabulary built at ``min_count``; documents left empty are dropped.
    The keys that keep a document get dense tags in ascending key order.
    """
    counts: Counter[str] = Counter()
    for _, _, kmers in raw:
        counts.update(kmers)
    vocab = build_vocabulary(counts, min_count)
    encoded = [(key, phase, vocab.encode(kmers)) for key, phase, kmers in raw]
    encoded = [doc for doc in encoded if len(doc[2])]
    if not encoded:
        raise DataError(f"empty corpus: every sequence is too short to tokenize "
                        f"or has only kmers below min_count={min_count}")
    keys = sorted({key for key, _, _ in encoded})
    tag_of = {key: tag for tag, key in enumerate(keys)}
    docs = [TokenizedDoc(tag_of[key], phase, ids) for key, phase, ids in encoded]
    return docs, vocab, keys


def build_corpus(
    records: Sequence[SequenceRecord],
    cfg: TokenizerConfig,
    min_count: int = 1,
) -> Corpus:
    """Tokenize ``records`` into documents and build their vocabulary.

    Each sequence is split by ``cfg.phases``. After rare-token removal,
    documents that end up empty are dropped; doc tags are assigned densely
    over the sequences that still own at least one document, preserving
    input order, and the others are reported in ``Corpus.skipped``.
    Raises DataError if nothing survives.
    """
    raw = [(i, phase, kmers) for i, rec in enumerate(records)
           for phase, kmers in enumerate(cfg.phases(rec.residues))]
    docs, vocab, keys = _assemble(raw, min_count)
    kept = set(keys)
    return Corpus(docs, vocab, cfg, [records[i].id for i in keys],
                  [rec.id for i, rec in enumerate(records) if i not in kept])


def subsample_keep_probs(vocab: Vocabulary, t: float) -> np.ndarray:
    """Per-token keep probability min(1, sqrt(t/f) + t/f) for frequency f."""
    if t <= 0:
        raise ConfigError(f"subsampling threshold must be positive, got {t}")
    f = vocab.token_frequencies()
    return np.minimum(1.0, np.sqrt(t / f) + t / f)


def subsample_filter(
    tokens: Sequence[int] | np.ndarray,
    keep: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Randomly drop high-frequency tokens, preserving survivor order.

    Token t survives with probability ``keep[t]``, the table
    ``subsample_keep_probs`` gives; one uniform draw is consumed per input
    token, so a fixed generator state reproduces the output exactly.
    """
    tokens = np.asarray(tokens, dtype=np.int32)
    return tokens[rng.random(len(tokens)) < keep[tokens]]


def guide_table(table: np.ndarray) -> np.ndarray:
    """The guide table of the cumulative ``table`` (Chen & Asau 1974).

    Its T entries, T the next power of two >= 16 * len(table), are the
    buckets [j/T, (j+1)/T) of [0, 1); a uniform u lies in bucket
    floor(u * T), which is exact since T is a power of two. Entry j is
    ``searchsorted(table, j/T, 'right')`` where that is also the value at
    (j+1)/T, and so at every u of the bucket, and -1 where a table entry
    falls in the bucket, so that a draw there needs the search.
    """
    T = 1 << (16 * len(table) - 1).bit_length()
    G = np.searchsorted(table, np.arange(T + 1) / T, side="right")
    return np.where(G[:-1] == G[1:], G[:-1], -1)


def build_huffman(vocab: Vocabulary) -> HuffmanCoding:
    """Binary Huffman coding of the vocabulary by token count.

    Ties are broken toward the lower token id (inner nodes compare after
    all leaves of equal count), making the tree deterministic. The lighter
    child of each merge receives bit 0.
    """
    V = len(vocab)
    if V < 2:
        raise DataError(f"Huffman coding needs at least 2 tokens, got {V}")

    # Heap entries: (count, tiebreak, node). Leaves are 0..V-1, inner nodes
    # are numbered V + creation order; children[i] indexes merged nodes.
    heap = [(int(c), i, i) for i, c in enumerate(vocab.counts)]
    heapq.heapify(heap)
    children: list[tuple[int, int]] = []
    while len(heap) > 1:
        c0, _, n0 = heapq.heappop(heap)  # lighter -> bit 0
        c1, _, n1 = heapq.heappop(heap)
        inner = V + len(children)
        children.append((n0, n1))
        heapq.heappush(heap, (c0 + c1, inner, inner))

    codes: list[np.ndarray | None] = [None] * V
    paths: list[np.ndarray | None] = [None] * V
    root = V + len(children) - 1
    stack: list[tuple[int, list[int], list[int]]] = [(root, [], [])]
    while stack:
        node, bits, path = stack.pop()
        if node < V:
            codes[node] = np.array(bits, dtype=np.uint8)
            paths[node] = np.array(path, dtype=np.int32)
            continue
        left, right = children[node - V]
        stack.append((left, bits + [0], path + [node - V]))
        stack.append((right, bits + [1], path + [node - V]))
    return HuffmanCoding(codes, paths, n_inner=len(children))


# --- corpus text format -------------------------------------------------
#
# One document per line: "doc_tag<SP>phase<SP>kmer kmer ...". Lines
# starting with '#' are metadata: "#meta k=3 mode=nonoverlap" and one
# "#doc <tag> <sequence id>" per kept sequence, an id with no whitespace.
# Every kmer is k letters long; no kmer or id exceeds MAX_TEXT_BYTES UTF-8.
# The phase is 0 in overlap mode and in [0, k) in nonoverlap mode.
# Files without metadata still load; k is then the length of the first
# kmer and the mode is inferred from the phase fields.


def write_corpus(corpus: Corpus, stream: IO) -> None:
    tok = corpus.tokenizer
    stream.write(f"#meta k={tok.k} mode={tok.mode}\n")
    for tag, rid in enumerate(corpus.doc_ids):
        stream.write(f"#doc {tag} {rid}\n")
    tokens = corpus.vocab.tokens
    for doc in corpus.docs:
        kmers = " ".join(tokens[t] for t in doc.tokens)
        stream.write(f"{doc.doc_tag} {doc.phase} {kmers}\n")


def _fitting(text: str, lineno: int, what: str) -> str:
    """``text``, or a DataError if a model file could not hold it."""
    if len(text.encode("utf-8")) > MAX_TEXT_BYTES:
        raise DataError(f"line {lineno}: {what} is longer than {MAX_TEXT_BYTES} "
                        "UTF-8 bytes")
    return text


def read_corpus(data: bytes | str | IO) -> Corpus:
    """Load a tokenized corpus written by write_corpus (or by hand).

    The settings come from the ``#meta`` line wherever it sits, or are
    inferred as above; every kmer must be k letters long and every phase
    one the mode has. Doc tags must be nonnegative; gaps between them are
    closed. No two tags that own a document may share a sequence id, be it
    from a ``#doc`` line or the ``doc<tag>`` name a tag without one gets.
    """
    k = mode = None
    id_of: dict[int, tuple[str, int]] = {}  # tag -> (id, line of its #doc)
    raw: list[tuple[int, int, list[str]]] = []
    linenos: list[int] = []  # the line of each document in raw
    for lineno, line in enumerate(io.StringIO(_as_text(data)), start=1):
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        if line.startswith("#meta"):
            for fieldspec in line.split()[1:]:
                key, _, value = fieldspec.partition("=")
                if key == "k":
                    if not value.isdecimal() or int(value) < 1:
                        raise DataError(f"line {lineno}: kmer length must be a "
                                        f"positive integer, got {value!r}")
                    k = int(value)
                elif key == "mode":
                    if value not in MODES:
                        raise DataError(f"line {lineno}: mode must be one of "
                                        f"{MODES}, got {value!r}")
                    mode = value
            continue
        if line.startswith("#doc"):
            parts = line.split(None, 2)
            if len(parts) == 3:
                try:
                    tag = int(parts[1])
                except ValueError as exc:
                    raise DataError(f"line {lineno}: bad doc tag in {line!r}") from exc
                rid = _fitting(parts[2], lineno, "sequence id")
                if rid.split() != [rid]:  # vector files split lines at whitespace
                    raise DataError(f"line {lineno}: sequence id contains whitespace")
                id_of[tag] = rid, lineno
            continue
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise DataError(
                f"line {lineno}: expected 'doc_tag phase kmer ...', got {line!r}"
            )
        try:
            tag, phase = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad doc_tag/phase in {line!r}") from exc
        if tag < 0:
            raise DataError(f"line {lineno}: negative doc_tag in {line!r}")
        raw.append((tag, phase, parts[2:]))
        linenos.append(lineno)
    if not raw:
        raise DataError("empty corpus file")

    if k is None:
        k = len(raw[0][2][0])
    for lineno, (_, _, kmers) in zip(linenos, raw):
        for i, kmer in enumerate(kmers, start=1):
            if len(kmer) != k or len(kmer.encode("utf-8")) > MAX_TEXT_BYTES:
                _fitting(kmer, lineno, f"kmer {i}")  # raises if too long
                raise DataError(f"line {lineno}: kmer {i} is {len(kmer)} letters "
                                f"long, not k={k}")
    if mode is None:
        mode = "nonoverlap" if max(phase for _, phase, _ in raw) > 0 else "overlap"
    phases = 1 if mode == "overlap" else k
    for lineno, (_, phase, _) in zip(linenos, raw):
        if not 0 <= phase < phases:
            raise DataError(f"line {lineno}: phase {phase} is not in [0, {phases}), "
                            f"the phases of mode={mode} with k={k}")
    docs, vocab, tags = _assemble(raw, min_count=1)
    tag_of: dict[str, int] = {}
    for tag in tags:
        rid, lineno = id_of.get(tag, (f"doc{tag}", None))
        if rid in tag_of:  # one of the two has a #doc line
            other = tag_of[rid]
            raise DataError(f"line {lineno or id_of[other][1]}: doc tags {other} and "
                            f"{tag} share the sequence id {rid!r}")
        tag_of[rid] = tag
    return Corpus(docs, vocab, TokenizerConfig(k=k, mode=mode), list(tag_of), [])
