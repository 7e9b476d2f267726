"""Fit the full two-stage tagger and look inside the leaf mixtures.

Stage one routes words to leaves by phonetic questions; stage two clusters
each leaf's embeddings with its own Gaussian mixture. A tag is the leaf
letter plus the mixture component index, so "b1" means leaf b, component 1.
"""

import numpy as np

from prosotag import (
    SynthSpec,
    TaggerConfig,
    default_classes,
    fit,
    generate,
    tag,
    tag_inventory,
)

classes = default_classes()
spec = SynthSpec(
    num_leaf_archetypes=3,
    words_per_archetype=15,
    tokens_per_word=10,
    components_per_archetype=2,
    d=8,
    component_separation=7.0,
    seed=19,
)
lexicon, questions, samples, _ = generate(spec)

config = TaggerConfig(m=2, max_leaves=3, min_leaf=10, seed=19)
model = fit(lexicon, samples, questions, classes, config)

print(f"inventory: {' '.join(tag_inventory(model))}")
print()
for letter in model.tree.leaf_letters:
    gmm = model.gmms[letter]
    print(f"leaf {letter}: {gmm.n_samples} samples")
    for k in range(gmm.m):
        mean_norm = float(np.linalg.norm(gmm.means[k]))
        print(
            f"  component {k}: weight {gmm.weights[k]:.3f}, "
            f"|mean| {mean_norm:.2f}, var range "
            f"[{gmm.variances[k].min():.2f}, {gmm.variances[k].max():.2f}]"
        )

# tag a handful of training tokens
by_word = {w.word: w for w in lexicon}
print("\nsample tags:")
for s in samples[:6]:
    t = tag(model, by_word[s.word], s.embedding)
    print(f"  {s.token_id}: {t}")

# an embedding planted halfway between two component means lands on the
# nearer-in-posterior component, deterministically
letter = model.tree.leaf_letters[0]
gmm = model.gmms[letter]
word = next(w for w in lexicon if tag(model, w, gmm.means[0]) == f"{letter}0")
midpoint = 0.5 * (gmm.means[0] + gmm.means[1])
print(f"\nmidpoint probe on leaf {letter}: tag {tag(model, word, midpoint)}")
