"""A from-scratch neural-network substrate (numpy + reverse-mode autograd).

The paper fine-tunes BERT on 8 V100s; this environment has neither
HuggingFace nor a GPU, so the PLM is rebuilt from first principles:

* :mod:`repro.nn.tensor` — a reverse-mode automatic-differentiation engine,
* :mod:`repro.nn.layers` — Linear / Embedding / LayerNorm / Dropout modules,
* :mod:`repro.nn.attention` — multi-head self-attention,
* :mod:`repro.nn.transformer` — the BERT-style encoder stack,
* :mod:`repro.nn.infer` — graph-free fused inference over baked weights,
* :mod:`repro.nn.optim` — Adam,
* :mod:`repro.nn.losses` — BCE, cross-entropy, cosine similarity,
* :mod:`repro.nn.serialize` — weight (de)serialization.
"""

from repro.nn.tensor import Tensor
from repro.nn.layers import Module, Linear, Embedding, LayerNorm, Dropout
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.transformer import TransformerEncoderLayer, TransformerEncoder
from repro.nn.infer import (
    InferenceSession,
    fused_gelu,
    fused_layer_norm,
    fused_softmax,
)
from repro.nn.optim import Adam
from repro.nn.losses import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    cosine_similarity,
)
from repro.nn.serialize import save_weights, load_weights

__all__ = [
    "Tensor",
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
    "TransformerEncoder",
    "InferenceSession",
    "fused_gelu",
    "fused_layer_norm",
    "fused_softmax",
    "Adam",
    "binary_cross_entropy_with_logits",
    "cross_entropy",
    "cosine_similarity",
    "save_weights",
    "load_weights",
]
