"""Checkpoint file format: bit-identical round trips over the model grid and
a DataError for every way a file can be damaged."""
import json
import re

import numpy as np
import pytest

from vampcf import checkpoint
from vampcf.checkpoint import load_checkpoint, save_checkpoint
from vampcf.data import CSRMatrix
from vampcf.errors import DataError
from vampcf.gridcheck import grid_cells, tiny_config
from vampcf.model import init_params

VAMP_CELL = {"prior": "vamp", "hierarchy": "two_level", "gated": True,
             "likelihood": "multinomial"}


def tiny_params(seed=0, **cell):
    cfg = tiny_config(**(cell or VAMP_CELL))
    rng = np.random.default_rng(seed)
    train_matrix = (rng.random((8, cfg.n_items)) < 0.3).astype(np.float64)
    return init_params(cfg, rng, train_matrix=CSRMatrix.from_dense(train_matrix))


@pytest.mark.parametrize("name,cell", grid_cells(), ids=[n for n, _ in grid_cells()])
def test_round_trip_is_bit_identical(tmp_path, name, cell):
    params = tiny_params(seed=len(name), **cell)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, params, extra={"cell": name})
    loaded, extra = load_checkpoint(path)
    assert extra == {"cell": name}
    assert loaded.config == params.config
    saved = params.named_parameters()
    got = loaded.named_parameters()
    assert list(got) == list(saved)
    for n, m in saved.items():
        assert got[n].data.shape == m.data.shape, n
        assert got[n].data.dtype == np.float64, n
        assert got[n].data.tobytes() == m.data.tobytes(), n
        assert got[n].requires_grad, n
    # Saving what was loaded writes the same bytes again.
    again = str(tmp_path / "again.ckpt")
    save_checkpoint(again, loaded, extra={"cell": name})
    with open(path, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


def test_load_draws_no_random_parameters(tmp_path, monkeypatch):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, tiny_params())

    def refuse(*_, **__):
        raise AssertionError("load_checkpoint initialised parameters")

    monkeypatch.setattr(checkpoint, "init_params", refuse)
    load_checkpoint(path)


def test_failed_write_keeps_the_old_file_and_leaves_no_partial(tmp_path,
                                                               monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), tiny_params(seed=1))
    before = path.read_bytes()
    calls = []

    def fails_on_third_tensor(obj):
        calls.append(obj)
        if len(calls) == 3:
            raise OSError("disk full")
        return memoryview(obj)

    # Shadows the builtin inside the module: the tensor writes fail midway.
    monkeypatch.setattr(checkpoint, "memoryview", fails_on_third_tensor,
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(str(path), tiny_params(seed=2))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


# -- damaged files ----------------------------------------------------------

def saved_parts(tmp_path):
    """(path, header dict, tensor bytes) of a freshly saved checkpoint."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), tiny_params())
    raw = path.read_bytes()
    line, _, payload = raw.partition(b"\n")
    return path, json.loads(line), payload


def rewrite(path, header, payload):
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    path.write_bytes(line.encode("utf-8") + b"\n" + payload)


def assert_rejected(path, match):
    with pytest.raises(DataError, match=match):
        load_checkpoint(str(path))


def test_missing_file_rejected(tmp_path):
    assert_rejected(tmp_path / "none.ckpt", "cannot read checkpoint")


def test_truncated_header_rejected(tmp_path):
    path, _, _ = saved_parts(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:raw.index(b"\n") // 2])
    assert_rejected(path, "truncated checkpoint header")


def test_non_json_header_rejected(tmp_path):
    path, _, payload = saved_parts(tmp_path)
    path.write_bytes(b"{not json\n" + payload)
    assert_rejected(path, "invalid checkpoint header")


def test_unknown_format_rejected(tmp_path):
    path, header, payload = saved_parts(tmp_path)
    header["format"] = "vampcf-checkpoint-v0"
    rewrite(path, header, payload)
    assert_rejected(path, "unknown checkpoint format")


def test_v1_format_rejected_by_name(tmp_path):
    """Format 1 stored W/V and mean/log_var as separate tensors; no such
    file can be read as the fused layout."""
    path, header, payload = saved_parts(tmp_path)
    assert header["format"] == "vampcf-checkpoint-v2"
    header["format"] = "vampcf-checkpoint-v1"
    rewrite(path, header, payload)
    with pytest.raises(DataError, match="vampcf-checkpoint-v1"):
        load_checkpoint(path)


@pytest.mark.parametrize("key,value", [
    ("depth", 1.5), ("gated", "no"), ("prior", "gaussian")])
def test_invalid_header_config_rejected(tmp_path, key, value):
    path, header, payload = saved_parts(tmp_path)
    header["config"][key] = value
    rewrite(path, header, payload)
    with pytest.raises(DataError,
                       match=f"{re.escape(str(path))}: malformed checkpoint header.*{key}"):
        load_checkpoint(str(path))


def test_header_without_manifest_rejected(tmp_path):
    path, header, payload = saved_parts(tmp_path)
    del header["tensors"]
    rewrite(path, header, payload)
    assert_rejected(path, "malformed checkpoint header")


def test_renamed_tensor_rejected(tmp_path):
    path, header, payload = saved_parts(tmp_path)
    header["tensors"][1]["name"] = "encoder_z2.0.bias"
    rewrite(path, header, payload)
    assert_rejected(path, "manifest does not match")


def test_missing_tensor_rejected(tmp_path):
    path, header, payload = saved_parts(tmp_path)
    header["tensors"].pop()
    rewrite(path, header, payload)
    assert_rejected(path, "manifest does not match")


def test_wrong_shape_rejected(tmp_path):
    path, header, payload = saved_parts(tmp_path)
    rows, cols = header["tensors"][0]["shape"]
    header["tensors"][0]["shape"] = [cols, rows]
    rewrite(path, header, payload)
    assert_rejected(path, "has shape")


def test_truncated_tensor_rejected(tmp_path):
    path, header, payload = saved_parts(tmp_path)
    rewrite(path, header, payload[:-8])
    assert_rejected(path, "truncated tensor pseudo_inputs")


def test_trailing_bytes_rejected(tmp_path):
    path, header, payload = saved_parts(tmp_path)
    rewrite(path, header, payload + b"\0")
    assert_rejected(path, "trailing bytes")
