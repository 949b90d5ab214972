"""Edge-conditioned multi-head self-attention and the encoder stack.

Attention logits between nodes i and j are modulated feature-wise by
(gamma_ij, beta_ij) produced from the edge type by a small conditioner MLP,
then scaled by 1/sqrt(d_k) and softmaxed:

    weights = softmax((Gamma * (Q K^T) + B) / sqrt(d_k))

One (gamma, beta) pair is produced per edge type per layer and shared across
all heads of that layer. The conditioner's output layer starts at zero, so
training begins at exact vanilla attention (gamma = 1 + raw, beta = raw).

All heads of a layer run as one autodiff op (autodiff.multi_head_attention):
one batched matmul over the (heads, n, d_k) view of the projections, and a
backward written by hand from the saved softmax weights. The op also takes a
batch axis, so encode_batch runs a whole padded mini-batch of graphs at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CapacityError, ContractError
from .graph import Graph, NO_BOND, pad_graphs
from .nn import affine, init_affine, init_embedding, init_layer_norm, positional_encoding


@dataclass(frozen=True)
class EncoderConfig:
    """Desk-scale defaults; reference-scale presets live in training.PRESETS."""

    layers: int = 2
    heads: int = 4
    width: int = 64
    ff_width: int = 128
    cond_hidden: int = 16
    use_positional_encoding: bool = False
    neighbor_only: bool = False
    max_context: int = 64
    node_feature_dim: int = 0

    def __post_init__(self):
        for name in ("layers", "heads", "width", "ff_width", "cond_hidden", "max_context"):
            if getattr(self, name) <= 0:
                raise ContractError(f"EncoderConfig.{name} must be positive")
        if self.width % self.heads:
            raise ContractError(f"width {self.width} not divisible by heads {self.heads}")


def init_conditioner(params: dict[str, Tensor], name: str, rng: np.random.Generator,
                     n_edge_types: int, hidden: int, layers: int):
    """Conditioner MLP: one-hot edge type -> tanh hidden -> 2L raw."""
    bound = math.sqrt(6.0 / (n_edge_types + hidden))
    params[f"{name}.onehot"] = Tensor(
        rng.uniform(-bound, bound, size=(n_edge_types, hidden)), requires_grad=True)
    params[f"{name}.b1"] = Tensor(np.zeros(hidden), requires_grad=True)
    init_affine(params, f"{name}.out", rng, hidden, 2 * layers, zero=True)


def edge_gamma_beta(params: dict[str, Tensor], name: str, edge_matrix: np.ndarray,
                    n_layers: int) -> tuple[list[Tensor], list[Tensor]]:
    """Per-layer modulation matrices for every node pair.

    Returns (gammas, betas), each a list of n_layers tensors shaped like
    edge_matrix, which may be rectangular (queries by keys) or batched. The
    MLP runs once, on the one-hot rows of the edge vocabulary, and each pair
    gathers its edge type's row of that table.
    """
    onehot = params[f"{name}.onehot"]
    ids = np.asarray(edge_matrix, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= onehot.shape[0]):
        raise ContractError(
            f"edge id out of range: vocabulary has {onehot.shape[0]} edge types")
    table = affine(params, f"{name}.out", ad.tanh(ad.add(onehot, params[f"{name}.b1"])))
    raw = ad.embedding_gather(table, ids)
    gammas = [ad.add(raw[..., 2 * layer], 1.0) for layer in range(n_layers)]
    betas = [raw[..., 2 * layer + 1] for layer in range(n_layers)]
    return gammas, betas


def neighbor_mask(edge_matrix: np.ndarray, neighbor_only: bool) -> np.ndarray:
    """Boolean attention mask: NO_BOND pairs blocked iff neighbor_only."""
    if neighbor_only:
        return np.asarray(edge_matrix) != NO_BOND
    return np.ones(np.asarray(edge_matrix).shape, dtype=bool)


def init_encoder_params(cfg: EncoderConfig, n_labels: int, n_edge_types: int,
                        rng: np.random.Generator, prefix: str = "enc") -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    init_embedding(params, f"{prefix}.embed", rng, n_labels, cfg.width)
    if cfg.node_feature_dim:
        init_affine(params, f"{prefix}.feat", rng, cfg.node_feature_dim, cfg.width)
    init_conditioner(params, f"{prefix}.cond", rng, n_edge_types, cfg.cond_hidden, cfg.layers)
    for i in range(cfg.layers):
        base = f"{prefix}.l{i}"
        for proj in ("q", "k", "v", "o"):
            init_affine(params, f"{base}.{proj}", rng, cfg.width, cfg.width)
        init_layer_norm(params, f"{base}.ln1", cfg.width)
        init_layer_norm(params, f"{base}.ln2", cfg.width)
        init_affine(params, f"{base}.ff1", rng, cfg.width, cfg.ff_width)
        init_affine(params, f"{base}.ff2", rng, cfg.ff_width, cfg.width)
    return params


def project_keys_values(params: dict[str, Tensor], base: str, source: Tensor
                        ) -> tuple[Tensor, Tensor]:
    """Keys and values of the attention block at base, over the source rows."""
    return affine(params, f"{base}.k", source), affine(params, f"{base}.v", source)


def multi_head_film_attention(cfg, params: dict[str, Tensor], base: str, x: Tensor,
                              gamma: Tensor | None = None, beta: Tensor | None = None,
                              mask: np.ndarray | None = None,
                              kv: tuple[Tensor, Tensor] | None = None
                              ) -> tuple[Tensor, np.ndarray]:
    """All heads of one layer as one op; the (gamma, beta) pair is shared
    across heads. Returns the output rows and the weights, (heads, n, nk), or
    (B, heads, n, nk) for a batch of sequences (see ad.multi_head_attention).

    Queries come from x; keys and values from x itself, unless kv holds
    them already projected (the encoder output for cross-attention, or
    cached rows and x during generation).
    """
    q = affine(params, f"{base}.q", x)
    k, v = kv or project_keys_values(params, base, x)
    out, weights = ad.multi_head_attention(q, k, v, cfg.heads, gamma, beta, mask)
    return affine(params, f"{base}.o", out), weights


def feed_forward(params: dict[str, Tensor], base: str, x: Tensor) -> Tensor:
    return affine(params, f"{base}.ff2", ad.relu(affine(params, f"{base}.ff1", x)))


def encode_batch(cfg: EncoderConfig, params: dict[str, Tensor], graphs: list[Graph],
                 prefix: str = "enc", collect_attention: bool = False):
    """Run the encoder stack over a batch of graphs in one padded pass.

    With n the largest graph's node count, returns (B*n, d) rows: graph b's
    nodes are rows b*n .. b*n + g.n - 1, and the rows after them are padding
    (pad_graphs). Padding rows and columns are masked out of every attention,
    so a graph's rows do not depend on the rest of the batch and padding rows
    receive exactly zero gradient.

    Input embedding is the label embedding, plus projected node features when
    configured, plus the sinusoidal positional encoding (per graph) when
    enabled. Each layer is post-norm: x = LN(x + attn); x = LN(x + ff).

    With collect_attention, also returns per layer the post-softmax weights,
    one (B, heads, n, n) array.
    """
    if not graphs:
        raise ContractError("cannot encode an empty batch")
    for g in graphs:
        if g.n == 0:
            raise ContractError("cannot encode an empty graph")
        if g.n > cfg.max_context:
            raise CapacityError(
                f"graph has {g.n} nodes, encoder context limit is {cfg.max_context}")
        width = 0 if g.node_features is None else g.node_features.shape[1]
        if width != cfg.node_feature_dim:
            raise ContractError(f"encoder expects node features of width "
                                f"{cfg.node_feature_dim}, graph has width {width}")
    sizes = np.array([g.n for g in graphs])
    batch, n = len(graphs), int(sizes.max())
    labels, edges = pad_graphs(graphs)
    x = ad.embedding_gather(params[f"{prefix}.embed"], labels.reshape(-1))
    if cfg.node_feature_dim:
        feats = np.zeros((batch, n, cfg.node_feature_dim))
        for b, g in enumerate(graphs):
            feats[b, :g.n] = g.node_features
        x = ad.add(x, affine(params, f"{prefix}.feat", Tensor(feats.reshape(batch * n, -1))))
    if cfg.use_positional_encoding:
        x = ad.add(x, Tensor(np.tile(positional_encoding(n, cfg.width), (batch, 1))))
    gammas, betas = edge_gamma_beta(params, f"{prefix}.cond", edges, cfg.layers)
    real = np.arange(n) < sizes[:, None]
    mask = neighbor_mask(edges, cfg.neighbor_only) & real[:, :, None] & real[:, None, :]
    collected = []
    for i in range(cfg.layers):
        base = f"{prefix}.l{i}"
        attn, head_weights = multi_head_film_attention(
            cfg, params, base, x, gammas[i], betas[i], mask)
        x = ad.layer_norm(x, params[f"{base}.ln1.g"], params[f"{base}.ln1.b"], residual=attn)
        ff = feed_forward(params, base, x)
        x = ad.layer_norm(x, params[f"{base}.ln2.g"], params[f"{base}.ln2.b"], residual=ff)
        if collect_attention:
            collected.append(head_weights)
    if collect_attention:
        return x, collected
    return x


def encode(cfg: EncoderConfig, params: dict[str, Tensor], g: Graph, prefix: str = "enc"
           ) -> Tensor:
    """encode_batch of one graph: its (n, d) node representations."""
    return encode_batch(cfg, params, [g], prefix)


def readout_cls(h: Tensor, rows: int | None = None) -> Tensor:
    """Graph-level vector: the final representation of the prepended token.

    With rows, h holds graphs of that many (padded) rows each, as encode_batch
    returns them, and the result is one vector per graph, (B, d).
    """
    return h[0] if rows is None else h[::rows]
