"""Checkpoint file format: bit-identical round trips over the model grid, a
memory-mapped copy-on-write load, and a DataError for every way a file can
be damaged."""
import json
import mmap
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import vampcf
from vampcf import checkpoint
from vampcf.checkpoint import load_checkpoint, save_checkpoint
from vampcf.data import CSRMatrix
from vampcf.errors import DataError
from vampcf.gridcheck import grid_cells, tiny_config
from vampcf.model import ModelConfig, init_params, param_shapes

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


# -- layout and memory-mapped load ------------------------------------------

def mapping_of(array):
    """The mmap a loaded tensor views, or None for an array of its own."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj if isinstance(array, memoryview) else None


def assert_native_arrays(loaded):
    for n, m in loaded.named_parameters().items():
        flags = m.data.flags
        assert m.data.dtype == np.float64, n
        assert flags.c_contiguous and flags.aligned and flags.writeable, n


def test_header_is_padded_and_tensor_bytes_unchanged(tmp_path):
    params = tiny_params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), params, extra={"note": "x"})
    raw = path.read_bytes()
    line, payload = raw[:raw.index(b"\n") + 1], raw[raw.index(b"\n") + 1:]
    assert len(line) % checkpoint.HEADER_ALIGN == 0
    compact = line.rstrip(b" \n")
    assert line == compact + b" " * (len(line) - len(compact) - 1) + b"\n"
    assert len(line) - len(compact) <= checkpoint.HEADER_ALIGN
    header = json.loads(compact)
    assert compact == json.dumps(header, sort_keys=True,
                                 separators=(",", ":")).encode("utf-8")
    assert payload == b"".join(m.data.astype("<f8").tobytes()
                               for m in params.named_parameters().values())


def test_loaded_tensors_are_views_into_one_mapping(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), tiny_params())
    loaded, _ = load_checkpoint(str(path))
    assert_native_arrays(loaded)
    maps = {id(mapping_of(m.data)) for m in loaded.named_parameters().values()}
    assert len(maps) == 1
    assert isinstance(mapping_of(loaded.pseudo_inputs.data), mmap.mmap)


def test_unpadded_header_loads_bit_identically_into_own_arrays(tmp_path):
    """A header written without padding, as before it was padded, leaves
    the tensors unaligned: each is copied out of the mapping."""
    path, header, payload = saved_parts(tmp_path)
    rewrite(path, header, payload)
    raw = path.read_bytes()
    assert raw.index(b"\n") % 8 != 7
    loaded, _ = load_checkpoint(str(path))
    assert_native_arrays(loaded)
    for n, m in tiny_params().named_parameters().items():
        got = loaded.named_parameters()[n].data
        assert got.tobytes() == m.data.tobytes(), n
        assert mapping_of(got) is None, n


def test_writing_into_loaded_parameters_leaves_the_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), tiny_params())
    before = path.read_bytes()
    loaded, _ = load_checkpoint(str(path))
    for m in loaded.named_parameters().values():
        m.data += 1.0
    assert path.read_bytes() == before
    again, _ = load_checkpoint(str(path))
    for n, m in tiny_params().named_parameters().items():
        assert again.named_parameters()[n].data.tobytes() == m.data.tobytes(), n


def test_saving_over_a_loaded_checkpoint_leaves_its_values(tmp_path):
    path = str(tmp_path / "model.ckpt")
    old, new = tiny_params(seed=1), tiny_params(seed=2)
    save_checkpoint(path, old)
    loaded, _ = load_checkpoint(path)
    save_checkpoint(path, new)
    for n, m in old.named_parameters().items():
        assert loaded.named_parameters()[n].data.tobytes() == m.data.tobytes(), n
    fresh, _ = load_checkpoint(path)
    for n, m in new.named_parameters().items():
        assert fresh.named_parameters()[n].data.tobytes() == m.data.tobytes(), n


# The peak RSS of the child itself. ``ru_maxrss`` would not do: Linux
# carries the peak of the process that started the child (here pytest,
# often far larger) across exec, so the child's growth would read 0.
LAZY_SCORE = textwrap.dedent("""
    import sys
    import numpy as np
    from vampcf.autodiff import Matrix
    from vampcf.checkpoint import load_checkpoint
    from vampcf.model import score_items

    def peak_bytes():
        with open("/proc/self/status") as f:
            line = next(line for line in f if line.startswith("VmHWM:"))
        return int(line.split()[1]) * 1024

    np.ones((64, 64)) @ np.ones((64, 64))
    before = peak_bytes()
    params, _ = load_checkpoint(sys.argv[1])
    row = np.zeros((1, params.config.n_items))
    row[0, :5] = 1.0
    scores = score_items(Matrix(row), params)
    assert np.isfinite(scores.data).all()
    print(peak_bytes() - before)
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from Linux /proc")
def test_scoring_a_loaded_model_pages_in_no_pseudo_inputs(tmp_path):
    """Scoring reads the encoder and decoder only: loading a vamp model and
    scoring one user grows the peak RSS by far less than the pseudo-inputs
    (about 61 MB here), which a load that read every byte would add."""
    cfg = ModelConfig(n_items=2000, prior="vamp", hidden=8, d_z1=4, d_z2=4,
                      n_pseudo=4000)
    params = init_params(cfg, np.random.default_rng(0))
    pseudo_bytes = params.pseudo_inputs.data.nbytes
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, params)
    del params
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(vampcf.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", LAZY_SCORE, path],
                          capture_output=True, text=True, env=env, check=True)
    assert int(proc.stdout) < pseudo_bytes / 2, (proc.stdout, pseudo_bytes)


def test_truncation_names_the_first_incomplete_tensor(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), tiny_params())
    raw = path.read_bytes()
    path.write_bytes(raw[:raw.index(b"\n") + 1 + 8])
    assert_rejected(path, "truncated tensor encoder_z2.0.W")
    path.write_bytes(raw[:-8])
    assert_rejected(path, "truncated tensor pseudo_inputs")
    path.write_bytes(raw + b"\0")
    assert_rejected(path, "trailing bytes")


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


def test_header_that_is_not_an_object_rejected(tmp_path):
    path, _, payload = saved_parts(tmp_path)
    path.write_bytes(b"[]\n" + payload)
    assert_rejected(path, "header is not a JSON object")


def test_extra_that_is_not_an_object_rejected(tmp_path):
    path, header, payload = saved_parts(tmp_path)
    header["extra"] = ["vocab_fingerprint"]
    rewrite(path, header, payload)
    assert_rejected(path, "extra is not a JSON object")


@pytest.mark.parametrize("manifest", ["declared", "empty"])
def test_huge_declared_model_rejected_before_allocating(tmp_path, manifest):
    """A header line alone that declares a model of 10^9 items and 10^6
    hidden units (exabytes of float64) is rejected from its header and the
    file size: nothing of that size is allocated."""
    cfg = ModelConfig(n_items=10**9, hidden=10**6, prior="standard")
    tensors = [] if manifest == "empty" else [
        {"name": n, "shape": list(s)} for n, s in param_shapes(cfg).items()]
    path = tmp_path / "model.ckpt"
    rewrite(path, {"format": checkpoint.FORMAT_NAME, "config": cfg.to_dict(),
                   "tensors": tensors, "extra": {}}, b"")
    assert_rejected(path, "truncated tensor encoder_z2.0.W" if manifest == "declared"
                    else "manifest does not match")
