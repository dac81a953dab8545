"""Training whole-sequence vectors and inferring vectors for new sequences.

Five synthetic families, each generated by its own order-1 Markov chain,
are embedded with the distributed-memory architecture. Sequences from
the same family end up close in the vector space, and a vector inferred
for a held-back sequence lands near its family's cluster.
"""

import numpy as np

from seqvec import (
    TokenizerConfig,
    TrainConfig,
    build_corpus,
    infer_docs,
    init_model,
    loss_estimate,
    markov_family_corpus,
    train,
)

records = markov_family_corpus(n_families=3, per_family=40, length=80,
                               seed=11, concentration=0.15)
held_out = records[::20]          # a few members of each family
training = [r for r in records if r not in held_out]

tokenizer = TokenizerConfig(k=3, mode="nonoverlap")
corpus = build_corpus(training, tokenizer)
print(f"{len(training)} sequences -> {len(corpus.docs)} documents, "
      f"vocabulary {len(corpus.vocab)}")

cfg = TrainConfig(architecture="dm", dim=32, window=5, objective="ns",
                  negative=5, epochs=60, alpha0=0.05, seed=1)
model = init_model(corpus.vocab, len(corpus.doc_ids), cfg, corpus.doc_ids, tokenizer)

before = loss_estimate(model, corpus.docs, probe_seed=0)
train(model, corpus.docs)
after = loss_estimate(model, corpus.docs, probe_seed=0)
print(f"mean objective loss: {before:.3f} before training, {after:.3f} after")

# --- within-family vectors are closer than across-family vectors --------

D = model.D / np.linalg.norm(model.D, axis=1, keepdims=True)
fams = np.array([rid.split("_")[0] for rid in corpus.doc_ids])
sims = D @ D.T
same = fams[:, None] == fams[None, :]
off_diag = ~np.eye(len(D), dtype=bool)
print(f"mean cosine within family : {sims[same & off_diag].mean():+.3f}")
print(f"mean cosine across family : {sims[~same].mean():+.3f}")

# --- inference: a frozen model embeds sequences it never trained on ------

for rec in held_out[:3]:
    # the same kmer -> id rule as training; unknown kmers are dropped
    token_lists = [corpus.vocab.encode(ph) for ph in tokenizer.phases(rec.residues)]
    vec = infer_docs(model, token_lists, seed=42)
    vec = vec / np.linalg.norm(vec)
    per_family = {f: float(np.mean(D[fams == f] @ vec)) for f in sorted(set(fams))}
    best = max(per_family, key=per_family.get)
    print(f"{rec.id}: nearest family by mean cosine -> {best} "
          f"({', '.join(f'{f}: {v:+.2f}' for f, v in sorted(per_family.items()))})")
