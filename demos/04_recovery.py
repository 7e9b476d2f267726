"""How well do emitted tags recover the planted labels?

The generator knows which archetype and which component produced every
token. Fitting the tagger and scoring its tags against those labels with
the adjusted Rand index shows recovery as a function of component
separation: hopeless when clusters overlap, essentially perfect by 8 sigma.
"""

from prosotag import (
    SynthSpec,
    TaggerConfig,
    adjusted_rand_index,
    default_classes,
    fit,
    generate,
    tag,
)

classes = default_classes()

print("separation   ARI (3 seeds)")
for separation in (1.0, 2.0, 4.0, 8.0):
    scores = []
    for seed in range(3):
        spec = SynthSpec(
            num_leaf_archetypes=3,
            words_per_archetype=25,
            tokens_per_word=12,
            components_per_archetype=3,
            d=16,
            component_separation=separation,
            seed=seed,
        )
        lexicon, questions, samples, truth = generate(spec)
        config = TaggerConfig(m=3, max_leaves=3, min_leaf=10, seed=seed)
        model = fit(lexicon, samples, questions, classes, config)
        by_word = {w.word: w for w in lexicon}
        predicted = {s.token_id: tag(model, by_word[s.word], s.embedding) for s in samples}
        scores.append(adjusted_rand_index(predicted, truth))
    joined = "  ".join(f"{s:.3f}" for s in scores)
    print(f"{separation:>10.1f}   {joined}")
