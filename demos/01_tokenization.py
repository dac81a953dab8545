"""Tokenizing sequences into kmer documents.

A sequence has no natural word boundaries, so we impose them: either
slide a window one letter at a time (overlapping), or tile the sequence
with disjoint kmers from k different starting offsets (non-overlapping).
"""

import numpy as np

from seqvec import (
    SequenceRecord,
    TokenizerConfig,
    build_corpus,
    kmers_nonoverlapping,
    kmers_overlapping,
    subsample_filter,
)
from seqvec.tokenizer import subsample_keep_probs

# --- the two schemes on a DNA fragment and a toy protein ----------------

print("overlapping  ACGTTA, k=3 :", kmers_overlapping("ACGTTA", 3))

print("\nnon-overlapping QWERTYQWERTY, k=3 gives one document per phase:")
for phase, kmers in enumerate(kmers_nonoverlapping("QWERTYQWERTY", 3)):
    print(f"  phase {phase}:", " ".join(kmers))

print("\noverlapping QWERTYQWERTY, k=3 :",
      " ".join(kmers_overlapping("QWERTYQWERTY", 3)))

# --- a corpus ties documents to a vocabulary -----------------------------

records = [
    SequenceRecord("seq1", "", "QWERTYQWERTY"),
    SequenceRecord("seq2", "", "QWERTYQWERTYQW"),
]
corpus = build_corpus(records, TokenizerConfig(k=3, mode="nonoverlap"))
docs, vocab = corpus.docs, corpus.vocab

print(f"\ncorpus: {len(docs)} documents over {len(records)} sequences "
      f"(each sequence's 3 phase documents share one tag)")
# the corpus keeps the settings that split it; the model file stores them
# so that queries are split the same way
print("tokenizer:", corpus.tokenizer)
print("vocabulary:", {t: int(c) for t, c in zip(vocab.tokens, vocab.counts)})

# tokens below a count threshold can be dropped at build time
rare_dropped = build_corpus(records, TokenizerConfig(3), min_count=2)
print("with min_count=2:", rare_dropped.vocab.tokens)

# --- frequency machinery used by training --------------------------------

# the negative-sampling table is a cumulative distribution over counts^0.75
print("\nsampling table:", np.round(vocab.sampling_table, 3))

# high-frequency tokens can be randomly thinned; survivors keep their order
rng = np.random.default_rng(0)
tokens = docs[0].tokens
keep = subsample_keep_probs(vocab, 1e-2)  # per-token keep probability
print("subsample t=1e-2 keeps:",
      subsample_filter(tokens, keep, rng).tolist(), "of", tokens.tolist())

# Huffman codes over token counts drive the hierarchical-softmax objective
# (built on first use and kept on the vocabulary)
print("\nHuffman codes (frequent tokens get short codes):")
for tok, code in zip(vocab.tokens, vocab.huffman.codes):
    print(f"  {tok}: {''.join(map(str, code.tolist()))}")
