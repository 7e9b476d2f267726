"""Unsupervised word-level prosody tagging.

Two stages: a binary decision tree over phonetic questions groups words by
how their prosody embeddings distribute (grown greedily by Gaussian
log-likelihood gain), then a per-leaf Gaussian mixture clusters each leaf's
embeddings. A token's tag is its leaf letter plus its maximum-posterior
component index, e.g. ``"d3"``. Unseen words still tag: routing only needs
the word's phonemes and syllable structure.

Typical use::

    from prosotag import TaggerConfig, fit, tag

    model = fit(lexicon, samples, questions, classes, TaggerConfig(seed=7))
    print(tag(model, lexicon[0], samples[0].embedding))
"""

from . import errors, gaussian, gmm, phonetics, synth, tagger, tree
from .errors import *  # noqa: F403
from .gaussian import *  # noqa: F403
from .gmm import *  # noqa: F403
from .phonetics import *  # noqa: F403
from .synth import *  # noqa: F403
from .tagger import *  # noqa: F403
from .tree import *  # noqa: F403

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = [
    *errors.__all__,
    *gaussian.__all__,
    *gmm.__all__,
    *phonetics.__all__,
    *synth.__all__,
    *tagger.__all__,
    *tree.__all__,
    "__version__",
]
