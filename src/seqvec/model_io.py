"""Binary model files and the text vector-export format.

Model file layout (all integers little-endian):

    magic  "SQV1" (4 bytes)
    u32    format version (currently 1)
    config block:
        u32 architecture (0=dm 1=dbow 2=cbow 3=sg)
        u32 dim, u32 window
        u32 objective (0=ns 1=hs), u32 negative
        f64 subsample_t, u32 epochs, f64 alpha0, f64 alpha_min, u64 seed
        u32 k, u32 token mode (0=nonoverlap 1=overlap), u32 min_count
    vocabulary block: u64 V, then per token u16 byte length + UTF-8 string
        + u64 count
    doc-tag block: u64 N, then per doc u16 byte length + UTF-8 sequence id
    matrices D (N x dim), W (V x dim), O (V or V-1 x dim) as raw float32,
        row-major

The sampling table, its guide table and the Huffman coding are derived
data and are rebuilt on load. So is the alpha_min slot: it holds
alpha0 / 10000, which save_model writes and load_model ignores, so a
file with another value there loads with the derived one. Every read checks remaining bytes
first, so a truncated file is rejected with the offending byte offset
instead of producing a partial model; so are a token count above 2**63 - 1,
a negative sample count above ``embedding.MAX_NEGATIVE`` and a non-finite
matrix entry. The text vector format is a
"N d" header line followed by one "id v1 ... vd" line per vector.

Tokenizer settings ride inside the model on purpose: inference must
split query sequences exactly as the training corpus was split.
``TrainConfig`` keeps its integer settings within their u32/u64 fields,
``TokenizerConfig`` its kmer length within its u32 field, and
``read_corpus`` its kmers and sequence ids within the u16 length field
(``tokenizer.MAX_TEXT_BYTES``), so a model trained from a corpus
file always saves. A model built another way whose tokens or ids do not
fit is rejected by ``save_model`` before it writes a byte.
"""

from __future__ import annotations

import struct
from typing import IO, Sequence

import numpy as np

from .embedding import _U32_MAX, EmbeddingModel, TrainConfig, ARCHITECTURES, OBJECTIVES
from .errors import ConfigError, DataError
from .sequences import _as_text
from .tokenizer import MAX_TEXT_BYTES, MODES, TokenizerConfig, Vocabulary

__all__ = [
    "ModelFormatError",
    "save_model",
    "load_model",
    "write_vectors",
    "read_vectors",
]

MAGIC = b"SQV1"
VERSION = 1
_CONFIG = struct.Struct("<IIIIIdIddQIII")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class ModelFormatError(DataError):
    """Model file rejected; message names the offending byte offset."""


def save_model(model: EmbeddingModel, stream: IO[bytes]) -> None:
    """Write ``model`` to ``stream``; nothing is written if a field cannot be held.

    The header (everything before the matrices) is packed and checked in
    memory first: a token or sequence id longer than a u16 length field
    allows is a DataError naming it and its index.
    """
    cfg = model.config
    tok = model.tokenizer
    if tok is None:
        raise ConfigError("model has no tokenizer settings; pass the corpus's "
                          "TokenizerConfig to init_model so that inference "
                          "splits queries as training did")
    doc_ids = model.doc_ids or [f"doc{i}" for i in range(model.n_docs)]
    if len(doc_ids) != model.n_docs:
        raise DataError("doc_ids length does not match the document matrix")

    header = [
        MAGIC,
        _U32.pack(VERSION),
        _CONFIG.pack(
            ARCHITECTURES.index(cfg.architecture),
            cfg.dim,
            cfg.window,
            OBJECTIVES.index(cfg.objective),
            cfg.negative,
            cfg.subsample_t,
            cfg.epochs,
            cfg.alpha0,
            cfg.alpha_min,
            cfg.seed,
            tok.k,
            MODES.index(tok.mode),
            model.vocab.min_count,
        ),
        _U64.pack(len(model.vocab)),
    ]
    for i, (token, count) in enumerate(zip(model.vocab.tokens, model.vocab.counts)):
        header += [_text(token, f"token {i}"), _U64.pack(int(count))]
    header.append(_U64.pack(len(doc_ids)))
    header += [_text(rid, f"doc id {i}") for i, rid in enumerate(doc_ids)]
    stream.write(b"".join(header))
    for matrix in (model.D, model.W, model.O):
        stream.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def _text(text: str, what: str) -> bytes:
    """A u16 byte length, then the UTF-8 of ``text``, as ``_Reader.text`` reads it."""
    raw = text.encode("utf-8")
    if len(raw) > MAX_TEXT_BYTES:
        raise DataError(f"{what} is {len(raw)} UTF-8 bytes long; a model file "
                        f"holds at most {MAX_TEXT_BYTES}")
    return _U16.pack(len(raw)) + raw


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.blob):
            raise ModelFormatError(
                f"truncated model file: needed {n} bytes for {what} at byte "
                f"{self.off}, only {len(self.blob) - self.off} left"
            )
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: struct.Struct, what: str):
        return fmt.unpack(self.take(fmt.size, what))

    def text(self, what: str) -> str:
        """A u16 byte length, then that many bytes of UTF-8."""
        (ln,) = self.unpack(_U16, f"{what} length")
        raw = self.take(ln, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(
                f"{what} is not valid UTF-8 at byte {self.off - ln + exc.start}"
            ) from None



def load_model(data: bytes | IO[bytes]) -> EmbeddingModel:
    if not isinstance(data, bytes):
        data = data.read()
    r = _Reader(data)
    if r.take(4, "magic") != MAGIC:
        raise ModelFormatError("bad magic at byte 0: not a model file")
    (version,) = r.unpack(_U32, "version")
    if version != VERSION:
        raise ModelFormatError(f"unsupported model version {version} at byte 4")

    (arch, dim, window, objective, negative, subsample_t, epochs, alpha0,
     _alpha_min, seed, k, mode, min_count) = r.unpack(_CONFIG, "config block")
    try:
        cfg = TrainConfig(
            architecture=ARCHITECTURES[arch],
            dim=dim,
            window=window,
            objective=OBJECTIVES[objective],
            negative=negative,
            subsample_t=subsample_t,
            epochs=epochs,
            alpha0=alpha0,
            seed=seed,
        )
        tok = TokenizerConfig(k=k, mode=MODES[mode])
    except (IndexError, ValueError) as exc:
        raise ModelFormatError(f"invalid config block: {exc} (block at byte 8)") from exc

    vocab_at = r.off
    (V,) = r.unpack(_U64, "vocabulary size")
    if V < (2 if cfg.objective == "hs" else 1):
        raise ModelFormatError(
            f"impossible {cfg.objective} vocabulary size {V} at byte {vocab_at}"
        )
    left = len(r.blob) - r.off
    if 10 * V > left:  # each token takes at least 10 bytes (u16 length, u64 count)
        raise ModelFormatError(
            f"truncated model file: needed at least {10 * V} bytes, only {left} left, "
            f"for {cfg.objective} vocabulary size {V} at byte {vocab_at}"
        )
    tokens: list[str] = []
    counts = np.empty(V, dtype=np.int64)
    for i in range(V):
        tokens.append(r.text(f"token {i}"))
        (count,) = r.unpack(_U64, f"token {i} count")
        if count >= 2**63:  # save_model writes counts from an int64 array
            raise ModelFormatError(
                f"token {i} count {count} at byte {r.off - 8} exceeds 2**63 - 1")
        counts[i] = count
    try:
        vocab = Vocabulary(tokens, counts, min_count=min_count)
    except ValueError as exc:
        raise ModelFormatError(
            f"invalid vocabulary block: {exc} (block at byte {vocab_at})") from exc

    (N,) = r.unpack(_U64, "document count")
    doc_ids = [r.text(f"doc id {i}") for i in range(N)]

    def matrix(rows: int, what: str) -> np.ndarray:
        raw = r.take(rows * dim * 4, what)
        M = np.frombuffer(raw, dtype="<f4").reshape(rows, dim)
        bad = np.flatnonzero(~np.isfinite(M))
        if len(bad):
            raise ModelFormatError(f"{what} row {bad[0] // dim} has a non-finite "
                                   f"value at byte {r.off - len(raw) + 4 * bad[0]}")
        return M.copy()

    D = matrix(N, "document matrix")
    W = matrix(V, "word matrix")
    O = matrix(V if cfg.objective == "ns" else V - 1, "output matrix")
    if r.off != len(r.blob):
        raise ModelFormatError(
            f"{len(r.blob) - r.off} unexpected trailing bytes at byte {r.off}"
        )
    return EmbeddingModel(D, W, O, vocab, cfg, doc_ids, tok)


def write_vectors(ids: Sequence[str], matrix: np.ndarray, stream: IO[str]) -> None:
    """Text export: header "N d", then one "id v1 ... vd" line per vector."""
    matrix = np.asarray(matrix)
    if len(ids) != matrix.shape[0]:
        raise DataError("one id per vector row required")
    stream.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
    for rid, row in zip(ids, matrix):
        stream.write(rid + " " + " ".join(map(repr, row.tolist())) + "\n")


def read_vectors(data: str | bytes | IO) -> tuple[list[str], np.ndarray]:
    lines = _as_text(data).splitlines()
    if not lines:
        raise DataError("empty vector file")
    head = lines[0].split()
    if (len(head) != 2 or not all(h.isdecimal() for h in head)
            or not 1 <= int(head[1]) <= _U32_MAX):  # a model's largest dim
        raise DataError(f"line 1: expected header 'N d', 1 <= d <= {_U32_MAX}, "
                        f"got {lines[0]!r}")
    n, d = int(head[0]), int(head[1])
    if len(lines) - 1 != n:
        raise DataError(f"header declares {n} vectors but file has {len(lines) - 1}")
    ids, seen, rows = [], set(), []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != d + 1:
            raise DataError(f"line {i}: expected id plus {d} values, got {len(parts) - 1}")
        if parts[0] in seen:
            raise DataError(f"line {i}: duplicate vector id {parts[0]!r}")
        seen.add(parts[0])
        ids.append(parts[0])
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError:
            raise DataError(f"line {i}: non-numeric value in {parts[0]!r}") from None
    # built from the values read, so a declared shape allocates nothing
    matrix = np.array(rows, dtype=np.float64).reshape(n, d)
    with np.errstate(over="ignore"):  # beyond float32 range: inf, rejected below
        matrix = matrix.astype(np.float32)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise DataError(f"line {bad + 2}: vector {ids[bad]!r} has a non-finite value")
    return ids, matrix
