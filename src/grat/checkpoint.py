"""Binary checkpoint format with a bit-exact round trip.

Layout:

    bytes 0..7    magic "GRATCKPT"
    bytes 8..11   format version, little-endian uint32
    bytes 12..19  manifest length M, little-endian uint64
    bytes 20..    UTF-8 JSON manifest (M bytes), then the raw tensor blob

The manifest maps every stored tensor name to dtype/shape/offset/nbytes
(offsets are blob-relative and must be non-overlapping and in-bounds) and
carries the run-config snapshot. Parameter tensors are stored under
"param/<name>"; all floats are little-endian float64. Files written by older
versions may also hold "opt/..." tensors and an "optimizer" entry: they are
checked like any other entry, then ignored.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import CheckpointError

MAGIC = b"GRATCKPT"
VERSION = 1


@dataclass
class Checkpoint:
    params: dict[str, Tensor]
    config: dict


def save_checkpoint(path, params: dict[str, Tensor], config: dict):
    manifest_tensors = {}
    blob = bytearray()
    for name, p in params.items():
        raw = np.ascontiguousarray(p.data, dtype="<f8").tobytes()
        manifest_tensors[f"param/{name}"] = {
            "dtype": "float64",
            "shape": list(p.data.shape),
            "offset": len(blob),
            "nbytes": len(raw),
        }
        blob.extend(raw)
    manifest = json.dumps({"tensors": manifest_tensors, "config": config}).encode("utf-8")
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
    if not isinstance(manifest, dict):
        raise CheckpointError("corrupt manifest: not a JSON object")
    blob = data[20 + manifest_len:]
    entries = manifest.get("tensors")
    if not isinstance(entries, dict):
        raise CheckpointError("manifest lacks a tensor table")
    spans = []
    params: dict[str, Tensor] = {}
    for name, entry in entries.items():
        if not isinstance(entry, dict):
            raise CheckpointError(f"tensor {name!r}: entry is not a JSON object")
        if entry.get("dtype") != "float64":
            raise CheckpointError(f"tensor {name!r}: unsupported dtype {entry.get('dtype')!r}")
        shape = entry.get("shape", [])
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise CheckpointError(f"tensor {name!r}: shape {shape!r} is not a list of "
                                  f"non-negative ints")
        shape = tuple(shape)
        offset, nbytes = entry.get("offset"), entry.get("nbytes")
        if not isinstance(offset, int) or not isinstance(nbytes, int) or offset < 0:
            raise CheckpointError(f"tensor {name!r}: malformed offset/nbytes")
        if nbytes != math.prod(shape) * 8:
            raise CheckpointError(f"tensor {name!r}: nbytes does not match shape {shape}")
        if offset + nbytes > len(blob):
            raise CheckpointError(f"truncated blob: tensor {name!r} runs past end of file")
        spans.append((offset, offset + nbytes, name))
        if name.startswith("param/"):
            arr = np.frombuffer(blob[offset:offset + nbytes], dtype="<f8")
            params[name[len("param/"):]] = Tensor(arr.astype(np.float64).reshape(shape),
                                                  requires_grad=True)
    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise CheckpointError(f"overlapping offsets: {n0!r} and {n1!r}")
    return Checkpoint(params=params, config=manifest.get("config", {}))

