"""Parameter initialization and tiny layer helpers shared by encoder/decoder."""

from __future__ import annotations

import functools
import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def init_affine(params: dict[str, Tensor], name: str, rng: np.random.Generator,
                n_in: int, n_out: int, zero: bool = False):
    """Register weight+bias under '<name>.w' / '<name>.b' (Glorot uniform)."""
    if zero:
        w = np.zeros((n_in, n_out))
    else:
        bound = math.sqrt(6.0 / (n_in + n_out))
        w = rng.uniform(-bound, bound, size=(n_in, n_out))
    params[f"{name}.w"] = Tensor(w, requires_grad=True)
    params[f"{name}.b"] = Tensor(np.zeros(n_out), requires_grad=True)


def affine(params: dict[str, Tensor], name: str, x: Tensor) -> Tensor:
    return ad.affine(x, params[f"{name}.w"], params[f"{name}.b"])


def init_embedding(params: dict[str, Tensor], name: str, rng: np.random.Generator,
                   rows: int, width: int):
    scale = 1.0 / math.sqrt(width)
    params[name] = Tensor(rng.normal(0.0, scale, size=(rows, width)), requires_grad=True)


def init_layer_norm(params: dict[str, Tensor], name: str, width: int):
    params[f"{name}.g"] = Tensor(np.ones(width), requires_grad=True)
    params[f"{name}.b"] = Tensor(np.zeros(width), requires_grad=True)


# wavelength ladder base of the sinusoidal encoding; the transformer default
PE_BASE = 10000.0


@functools.lru_cache(maxsize=None)
def _positional_encoding_cached(length: int, width: int, base: float) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    dim = np.arange(width, dtype=np.float64)[None, :]
    angle = pos / np.power(base, 2.0 * np.floor(dim / 2.0) / width)
    table = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))
    table.flags.writeable = False
    return table


def positional_encoding(length: int, width: int) -> np.ndarray:
    """Sinusoidal position table, shape (length, width). Cached; treat as const."""
    return _positional_encoding_cached(length, width, PE_BASE)
