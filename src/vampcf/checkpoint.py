"""Model checkpointing.

One file: a compact JSON header line (model config, tensor manifest,
caller metadata) terminated by a newline, then the raw little-endian
float64 bytes of every tensor in manifest order. Serialization is fully
deterministic so identical training runs produce identical bytes.
"""
import json
import os
import sys

import numpy as np

from .errors import DataError
# init_params is not used here; perfbench wraps ``checkpoint.init_params`` by
# attribute to count parameter initialisations, so the name must stay.
from .model import ModelConfig, empty_params, init_params  # noqa: F401

FORMAT_NAME = "vampcf-checkpoint-v1"


def save_checkpoint(path, params, extra=None):
    """Write params to path atomically (tmp file + rename)."""
    named = params.named_parameters()
    header = {
        "format": FORMAT_NAME,
        "config": params.config.to_dict(),
        "tensors": [{"name": n, "shape": list(m.shape)} for n, m in named.items()],
        "extra": extra or {},
    }
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    tmp = path + ".partial"
    with open(tmp, "wb") as f:
        f.write(line.encode("utf-8") + b"\n")
        for m in named.values():
            f.write(np.ascontiguousarray(m.data, dtype="<f8").tobytes())
    os.replace(tmp, path)
    return path


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelParams, extra dict).

    Each tensor is read straight into its final array: the structure comes
    from the header's config with uninitialised storage, checked against
    the header's manifest, and every value is then read from the file.
    """
    try:
        f = open(path, "rb")
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from e
    with f:
        line = f.readline()
        if not line.endswith(b"\n"):
            raise DataError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataError(f"{path}: invalid checkpoint header: {e}") from e
        if header.get("format") != FORMAT_NAME:
            raise DataError(f"{path}: unknown checkpoint format {header.get('format')!r}")
        try:
            config = ModelConfig(**header["config"])
            manifest = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
        except (KeyError, TypeError) as e:
            raise DataError(f"{path}: malformed checkpoint header: {e!r}") from e
        params = empty_params(config)
        named = params.named_parameters()
        if [name for name, _ in manifest] != list(named):
            raise DataError(f"{path}: tensor manifest does not match the "
                            f"declared model configuration")
        for name, shape in manifest:
            target = named[name].data
            if target.shape != shape:
                raise DataError(f"{path}: tensor {name} has shape {shape}, "
                                f"expected {target.shape}")
            if f.readinto(memoryview(target).cast("B")) != target.nbytes:
                raise DataError(f"{path}: truncated tensor {name}")
            if sys.byteorder != "little":
                target.byteswap(inplace=True)
        if f.read(1):
            raise DataError(f"{path}: trailing bytes after declared tensors")
    return params, header.get("extra", {})
