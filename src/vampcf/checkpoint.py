"""Model checkpointing.

One file: a compact JSON header line (model config, tensor manifest,
caller metadata) padded with spaces to a multiple of 64 bytes before its
newline, then the raw little-endian float64 bytes of every tensor in
manifest order. The padding starts every tensor 8-byte aligned, so a load
maps the file and uses the tensors in place; ``json.loads`` ignores it.
Serialization is fully deterministic so identical training runs produce
identical bytes.

A load maps the file copy-on-write and reads only the pages a caller
touches. Replace a checkpoint that may be in use by a rename, as
``save_checkpoint`` does, never by rewriting it in place: a loaded model
still reads the file's untouched pages, which an in-place rewrite changes
under it.
"""
import json
import math
import mmap
import os
import shutil

import numpy as np

from .errors import ConfigError, DataError
# init_params is not used here; perfbench wraps ``checkpoint.init_params`` by
# attribute to count parameter initialisations, so the name must stay.
from .model import ModelConfig, empty_params, init_params, param_shapes  # noqa: F401

FORMAT_NAME = "vampcf-checkpoint-v2"

# The header line is padded to a multiple of this many bytes.
HEADER_ALIGN = 64


def write_atomic(path, write):
    """Make ``path`` by ``write(tmp)`` on ``tmp = path + ".partial"`` (a
    file or a directory) and a rename over ``path``. A stale ``tmp`` is
    removed first, and a failed write or rename removes ``tmp`` before
    the error propagates, so no ``.partial`` is left behind. An
    ``OSError`` of the write that names ``tmp`` (or a file inside it)
    names ``path`` instead, the file the caller asked for; a failed rename
    already names both."""
    tmp = path + ".partial"
    _remove(tmp)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException as e:
        _remove(tmp)
        if (isinstance(e, OSError) and e.filename2 is None
                and isinstance(e.filename, str) and e.filename.startswith(tmp)):
            e.filename = path + e.filename[len(tmp):]
        raise
    return path


def _remove(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.lexists(path):
        os.remove(path)


def save_checkpoint(path, params, extra=None):
    """Write params to path atomically (see ``write_atomic``)."""
    named = params.named_parameters()
    header = {
        "format": FORMAT_NAME,
        "config": params.config.to_dict(),
        "tensors": [{"name": n, "shape": list(m.shape)} for n, m in named.items()],
        "extra": extra or {},
    }
    line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    line += b" " * (-(len(line) + 1) % HEADER_ALIGN) + b"\n"

    def write(tmp):
        with open(tmp, "wb") as f:
            f.write(line)
            for m in named.values():
                # A view of the tensor's own buffer (a copy only on big-endian).
                f.write(memoryview(np.ascontiguousarray(m.data, dtype="<f8")).cast("B"))

    return write_atomic(path, write)


def load_checkpoint(path):
    """Map a checkpoint; returns (ModelParams, extra dict).

    The header, the manifest, the declared config and the file size are
    checked against each other before any tensor is allocated. The file is
    then mapped once, copy-on-write, and every parameter is a float64 view
    into that mapping: a caller pages in only the tensors it reads, and
    writing into a parameter never reaches the file. A tensor that is not
    aligned (a header written without padding) or not in native byte order
    is copied out of the mapping. The mapping is released with the last
    tensor that views it.
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
        if not isinstance(header, dict):
            raise DataError(f"{path}: checkpoint header is not a JSON object")
        if header.get("format") != FORMAT_NAME:
            raise DataError(f"{path}: unknown checkpoint format {header.get('format')!r}")
        extra = header.get("extra", {})
        if not isinstance(extra, dict):
            raise DataError(f"{path}: checkpoint header's extra is not a JSON object")
        try:
            config = ModelConfig(**header["config"])
            manifest = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
        except (KeyError, TypeError, ValueError, ConfigError) as e:
            raise DataError(f"{path}: malformed checkpoint header: {e!r}") from e
        shapes = param_shapes(config)
        if [name for name, _ in manifest] != list(shapes):
            raise DataError(f"{path}: tensor manifest does not match the "
                            f"declared model configuration")
        size = os.fstat(f.fileno()).st_size
        offsets = []
        end = len(line)
        for name, shape in manifest:
            expected = shapes[name]
            if expected != shape:
                raise DataError(f"{path}: tensor {name} has shape {shape}, "
                                f"expected {expected}")
            offsets.append(end)
            end += 8 * math.prod(expected)
            if end > size:
                raise DataError(f"{path}: truncated tensor {name}")
        if end != size:
            raise DataError(f"{path}: trailing bytes after declared tensors")
        buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
    params = empty_params(config)
    named = params.named_parameters()
    for (name, shape), offset in zip(shapes.items(), offsets):
        view = np.frombuffer(buf, "<f8", math.prod(shape), offset).reshape(shape)
        named[name].data = np.require(view, np.float64, ["C", "A"])
    return params, extra
