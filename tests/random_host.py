"""A host with seeded random weights, for tests that need one of any shape."""
from __future__ import annotations

import numpy as np

from dualstream.model import ModelConfig, TinyTransformer, weight_shapes


def random_host(config: ModelConfig) -> TinyTransformer:
    """Gains 1, biases 0, and every other weight drawn from ``config.seed``."""
    rng = np.random.default_rng(config.seed)
    std = {"tok_emb": 0.5, "pos_emb": 0.1}
    proj = 0.3 / np.sqrt(config.d_model)
    w = {}
    for name, shape in weight_shapes(config).items():
        if name.endswith("gain"):
            w[name] = np.ones(shape)
        elif name.endswith(("bias", "bo", "b1", "b2")):
            w[name] = np.zeros(shape)
        else:
            w[name] = rng.normal(0.0, std.get(name, proj), size=shape)
    return TinyTransformer(config, w)
