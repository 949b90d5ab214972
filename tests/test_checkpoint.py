"""Checkpoint format: bit-exact round trips, corruption detection, manifest
completeness."""

import json
import struct

import numpy as np
import pytest

from grat import checkpoint
from grat.autodiff import Tensor
from grat.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from grat.errors import CheckpointError


def random_params(rng, n_tensors=6):
    params = {}
    for i in range(n_tensors):
        shape = tuple(int(x) for x in rng.integers(1, 7, size=int(rng.integers(1, 3))))
        params[f"t{i}.w"] = Tensor(rng.normal(size=shape), requires_grad=True)
    return params


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = random_params(rng)
    config = {"task": "property", "note": 1.5}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, config)
    ckpt = load_checkpoint(path)
    assert ckpt.config == config
    assert set(ckpt.params) == set(params)
    for name, p in params.items():
        assert np.array_equal(ckpt.params[name].data, p.data)
        assert ckpt.params[name].data.shape == p.data.shape


def test_many_random_round_trips(tmp_path):
    rng = np.random.default_rng(2)
    for i in range(50):
        params = random_params(rng, n_tensors=int(rng.integers(1, 5)))
        path = tmp_path / f"r{i}.ckpt"
        save_checkpoint(path, params, {"i": i})
        ckpt = load_checkpoint(path)
        for name, p in params.items():
            assert np.array_equal(ckpt.params[name].data, p.data)


def test_manifest_lists_every_parameter_exactly_once(tmp_path):
    # registry-diff: manifest names == registry names, no dupes possible in dict
    rng = np.random.default_rng(3)
    params = random_params(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, {})
    raw = path.read_bytes()
    manifest_len = struct.unpack("<Q", raw[12:20])[0]
    manifest = json.loads(raw[20:20 + manifest_len])
    stored = [n[len("param/"):] for n in manifest["tensors"] if n.startswith("param/")]
    assert sorted(stored) == sorted(params)


def test_failed_write_leaves_previous_checkpoint_whole(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, random_params(rng), {"task": "property"})
    before = path.read_bytes()

    class DiskFullAfterHeader:
        """File whose writes fail once the first one has landed."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if self.fh.tell():
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(checkpoint, "open",
                        lambda *args, **kw: DiskFullAfterHeader(open(*args, **kw)),
                        raising=False)
    with pytest.raises(OSError):
        save_checkpoint(path, random_params(rng), {"task": "property"})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def read_manifest(path):
    raw = path.read_bytes()
    manifest_len = struct.unpack("<Q", raw[12:20])[0]
    return json.loads(raw[20:20 + manifest_len]), raw[20 + manifest_len:]


def write_raw(path, manifest, blob):
    encoded = json.dumps(manifest).encode()
    path.write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<Q", len(encoded))
                     + encoded + blob)


class TestCorruption:
    def make(self, tmp_path):
        params = {"w": Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, {})
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTGRATS"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = self.make(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_blob(self, tmp_path):
        path = self.make(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_overlapping_offsets(self, tmp_path):
        path = self.make(tmp_path)
        manifest, blob = read_manifest(path)
        manifest["tensors"]["w2"] = dict(manifest["tensors"]["param/w"])
        manifest["tensors"]["w2"]["offset"] = 8  # overlaps param/w at 0..48
        write_raw(path, manifest, blob + b"\0" * 16)
        with pytest.raises(CheckpointError, match="overlap"):
            load_checkpoint(path)

    def test_shape_nbytes_mismatch(self, tmp_path):
        path = self.make(tmp_path)
        manifest, blob = read_manifest(path)
        manifest["tensors"]["param/w"]["shape"] = [4, 3]
        write_raw(path, manifest, blob)
        with pytest.raises(CheckpointError, match="nbytes"):
            load_checkpoint(path)

    def test_shape_whose_size_overflows_int64(self, tmp_path):
        path = self.make(tmp_path)
        manifest, blob = read_manifest(path)
        manifest["tensors"]["param/w"].update(shape=[2 ** 32, 2 ** 32], nbytes=0)
        write_raw(path, manifest, blob)
        with pytest.raises(CheckpointError, match="nbytes"):
            load_checkpoint(path)

    def test_manifest_not_an_object(self, tmp_path):
        path = self.make(tmp_path)
        _, blob = read_manifest(path)
        write_raw(path, [1, 2], blob)
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    def test_tensor_entry_not_an_object(self, tmp_path):
        path = self.make(tmp_path)
        manifest, blob = read_manifest(path)
        manifest["tensors"]["param/w"] = "float64"
        write_raw(path, manifest, blob)
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[-2, -3], [-1, 6], "23", [2.0, 3], [2, None], 6])
    def test_shape_not_a_list_of_non_negative_ints(self, tmp_path, shape):
        path = self.make(tmp_path)
        manifest, blob = read_manifest(path)
        manifest["tensors"]["param/w"]["shape"] = shape
        write_raw(path, manifest, blob)
        with pytest.raises(CheckpointError, match="non-negative ints"):
            load_checkpoint(path)
