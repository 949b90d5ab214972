"""Binary checkpoint format with a bit-exact round trip.

Layout:

    bytes 0..7    magic "GRATCKPT"
    bytes 8..11   format version, little-endian uint32
    bytes 12..19  manifest length M, little-endian uint64
    bytes 20..    UTF-8 JSON manifest (M bytes), then the raw tensor blob

The manifest maps every stored tensor name to dtype/shape/offset/nbytes
(offsets are blob-relative and must be non-overlapping and in-bounds) and
carries the run-config snapshot plus optimizer scalars. Parameter tensors
are stored under "param/<name>", Adam moments under "opt/m|v/<name>". All
floats are little-endian float64.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Adam, Tensor
from .errors import CheckpointError

MAGIC = b"GRATCKPT"
VERSION = 1


@dataclass
class Checkpoint:
    params: dict[str, Tensor]
    config: dict
    optimizer: dict | None  # {"t", "lr", "beta1", "beta2", "eps", "tensors": {...}}


def save_checkpoint(path, params: dict[str, Tensor], config: dict,
                    optimizer: Adam | None = None):
    tensors: dict[str, np.ndarray] = {f"param/{name}": p.data for name, p in params.items()}
    opt_entry = None
    if optimizer is not None:
        for name, arr in optimizer.state_tensors().items():
            tensors[f"opt/{name}"] = arr
        opt_entry = {"t": optimizer.t, "lr": optimizer.lr, "beta1": optimizer.beta1,
                     "beta2": optimizer.beta2, "eps": optimizer.eps}
    manifest_tensors = {}
    blob = bytearray()
    for name, arr in tensors.items():
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        manifest_tensors[name] = {
            "dtype": "float64",
            "shape": list(arr.shape),
            "offset": len(blob),
            "nbytes": len(raw),
        }
        blob.extend(raw)
    manifest = json.dumps({"tensors": manifest_tensors, "config": config,
                           "optimizer": opt_entry}).encode("utf-8")
    # written beside the target, then renamed over it: a failed write leaves
    # the previous checkpoint whole. There is no fsync (it would cost more
    # than the write), so a power loss can still drop the newest checkpoint.
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(manifest)))
            fh.write(manifest)
            fh.write(bytes(blob))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if len(data) < 20 or data[:8] != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version = struct.unpack("<I", data[8:12])[0]
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    manifest_len = struct.unpack("<Q", data[12:20])[0]
    if 20 + manifest_len > len(data):
        raise CheckpointError("truncated manifest")
    try:
        manifest = json.loads(data[20:20 + manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt manifest: {exc}") from None
    blob = data[20 + manifest_len:]
    entries = manifest.get("tensors")
    if not isinstance(entries, dict):
        raise CheckpointError("manifest lacks a tensor table")
    spans = []
    arrays: dict[str, np.ndarray] = {}
    for name, entry in entries.items():
        if entry.get("dtype") != "float64":
            raise CheckpointError(f"tensor {name!r}: unsupported dtype {entry.get('dtype')!r}")
        shape = tuple(entry.get("shape", ()))
        offset, nbytes = entry.get("offset"), entry.get("nbytes")
        if not isinstance(offset, int) or not isinstance(nbytes, int) or offset < 0:
            raise CheckpointError(f"tensor {name!r}: malformed offset/nbytes")
        if nbytes != int(np.prod(shape, dtype=np.int64)) * 8:
            raise CheckpointError(f"tensor {name!r}: nbytes does not match shape {shape}")
        if offset + nbytes > len(blob):
            raise CheckpointError(f"truncated blob: tensor {name!r} runs past end of file")
        spans.append((offset, offset + nbytes, name))
        arrays[name] = np.frombuffer(blob[offset:offset + nbytes],
                                     dtype="<f8").astype(np.float64).reshape(shape)
    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise CheckpointError(f"overlapping offsets: {n0!r} and {n1!r}")
    params = {name[len("param/"):]: Tensor(arr, requires_grad=True)
              for name, arr in arrays.items() if name.startswith("param/")}
    optimizer = manifest.get("optimizer")
    if optimizer is not None:
        optimizer = dict(optimizer)
        optimizer["tensors"] = {name[len("opt/"):]: arr for name, arr in arrays.items()
                                if name.startswith("opt/")}
    return Checkpoint(params=params, config=manifest.get("config", {}), optimizer=optimizer)


def restore_optimizer(ckpt: Checkpoint, params: dict[str, Tensor]) -> Adam | None:
    if ckpt.optimizer is None:
        return None
    opt = Adam(params, lr=ckpt.optimizer["lr"], beta1=ckpt.optimizer["beta1"],
               beta2=ckpt.optimizer["beta2"], eps=ckpt.optimizer["eps"])
    opt.load_state(ckpt.optimizer["t"], ckpt.optimizer["tensors"])
    return opt
