"""Bicameral language modelling: a frozen generative tower probed, layer by
layer, by a trainable shadow tower that scores every prefix of the
sequence while tokens are generated."""

from .doppelganger import (BicameralModel, DoppelConfig, DoppelgangerModel,
                           bicameral_forward, doppel_forward, init_doppelganger,
                           score_prefixes)
from .generation import GenerationEvent, SamplerConfig, generate, sample
from .language import (CharTokenizer, KVCache, LanguageModel, LMConfig, forward,
                       freeze, init_language_model, positional_encode, pretrain)
from .optim import OptimConfig
from .tensor import Tensor
from .training import (SupervisedSequence, SyntheticTaskSpec, evaluate,
                       generate_synthetic_dataset, train_doppelganger)

__all__ = [
    "BicameralModel", "CharTokenizer", "DoppelConfig", "DoppelgangerModel",
    "GenerationEvent", "KVCache", "LMConfig", "LanguageModel", "OptimConfig",
    "SamplerConfig", "SupervisedSequence", "SyntheticTaskSpec", "Tensor",
    "bicameral_forward", "doppel_forward", "evaluate", "forward", "freeze",
    "generate", "generate_synthetic_dataset", "init_doppelganger",
    "init_language_model", "positional_encode", "pretrain", "sample",
    "score_prefixes", "train_doppelganger",
]
