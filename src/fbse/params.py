"""Named parameter storage, deterministic initialization, checkpoint I/O.

Every parameter is seeded from ``(store seed, crc32(name))`` so initialization
is reproducible and independent of construction order. Checkpoints are a flat
little-endian binary blob behind a one-line JSON index (name, shape, offset,
dtype), reloadable bit-exactly.
"""

import json
import zlib

import numpy as np

from .autodiff import Tensor
from .errors import CheckpointError

CHECKPOINT_MAGIC = b"FBSECKPT"
CHECKPOINT_VERSION = 1


class ParamStore:
    """Ordered mapping of parameter names to trainable tensors (+ buffers)."""

    def __init__(self, seed: int = 0, dtype=np.float64):
        self.rng_seed = int(seed)
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def _rng(self, name):
        return np.random.default_rng(
            np.random.SeedSequence([self.rng_seed & 0xFFFFFFFF, zlib.crc32(name.encode())])
        )

    def add(self, name, shape, fan_in=None, uniform_bound=None, zero=False, out=None) -> Tensor:
        """Create and register one parameter tensor.

        ``fan_in`` picks Kaiming-style uniform init (+-sqrt(6/fan_in)),
        ``uniform_bound`` a plain +-bound, ``zero`` all-zeros. ``out``, an
        existing array of ``shape`` and the store's dtype (typically a view
        into a larger stacked array), is initialized in place and becomes the
        tensor's data.
        """
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        shape = tuple(map(int, shape))
        if zero:
            data = np.zeros(shape, dtype=self.dtype)
        else:
            if fan_in is not None:
                bound = np.sqrt(6.0 / fan_in)
            elif uniform_bound is not None:
                bound = float(uniform_bound)
            else:
                raise ValueError(f"{name}: specify fan_in, uniform_bound or zero")
            data = self._rng(name).uniform(-bound, bound, size=shape).astype(self.dtype, copy=False)
        if out is not None:
            if out.shape != shape or out.dtype != self.dtype:
                raise ValueError(f"{name}: out is {out.dtype}{out.shape}, want {self.dtype}{shape}")
            out[...] = data
            data = out
        t = Tensor(data, requires_grad=True)
        self.params[name] = t
        return t

    def add_full(self, name, shape, fill) -> Tensor:
        """Register a parameter initialized to a constant fill value."""
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.full(tuple(map(int, shape)), fill, dtype=self.dtype), requires_grad=True)
        self.params[name] = t
        return t

    def add_buffer(self, name, shape, fill=0.0) -> np.ndarray:
        """Non-trainable state (e.g. running normalization statistics)."""
        if name in self.buffers:
            raise ValueError(f"duplicate buffer {name!r}")
        arr = np.full(tuple(map(int, shape)), fill, dtype=self.dtype)
        self.buffers[name] = arr
        return arr

    @property
    def total_count(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def zero_grads(self):
        for t in self.params.values():
            t.grad = None

    def save(self, path):
        entries = []
        blobs = []
        offset = 0
        for kind, table in (("param", self.params), ("buffer", self.buffers)):
            for name, t in table.items():
                arr = t.data if kind == "param" else t
                raw = np.ascontiguousarray(arr).tobytes()
                entries.append({
                    "name": name, "kind": kind, "shape": list(arr.shape),
                    "dtype": str(arr.dtype), "offset": offset, "nbytes": len(raw),
                })
                blobs.append(raw)
                offset += len(raw)
        header = json.dumps({
            "version": CHECKPOINT_VERSION, "seed": self.rng_seed,
            "dtype": str(self.dtype), "tensors": entries,
        }).encode()
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for raw in blobs:
                fh.write(raw)

    def load(self, path):
        """Restore parameters/buffers bit-exactly; shapes must match the model.

        A file that is unreadable, malformed or made for another model raises
        ``CheckpointError``.
        """
        try:
            with open(path, "rb") as fh:
                magic = fh.read(len(CHECKPOINT_MAGIC))
                if magic != CHECKPOINT_MAGIC:
                    raise CheckpointError(f"{path}: not a checkpoint file")
                hlen = int.from_bytes(fh.read(8), "little")
                try:
                    header = json.loads(fh.read(hlen).decode())
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
                if not isinstance(header, dict):
                    raise CheckpointError(f"{path}: header is not a JSON object")
                if header.get("version") != CHECKPOINT_VERSION:
                    raise CheckpointError(f"{path}: unsupported version {header.get('version')}")
                blob = fh.read()
        except OSError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        entries = header.get("tensors")
        if not isinstance(entries, list) or not all(
                isinstance(e, dict) and isinstance(e.get("name"), str) for e in entries):
            raise CheckpointError(f"{path}: header has no valid tensor table")
        names = {e["name"] for e in entries}
        expected = set(self.params) | set(self.buffers)
        if names != expected:
            missing = sorted(expected - names)[:3]
            extra = sorted(names - expected)[:3]
            raise CheckpointError(f"{path}: tensor set mismatch (missing {missing}, extra {extra})")
        for e in entries:
            arr = _decode_entry(path, e, blob)
            name = e["name"]
            target = self.params[name].data if name in self.params else self.buffers[name]
            if target.shape != arr.shape:
                raise CheckpointError(f"{path}: {name} shape {arr.shape} != model {target.shape}")
            target[...] = arr.astype(target.dtype)


def _decode_entry(path, e, blob):
    """The array that header entry ``e`` describes in ``blob``."""
    offset, nbytes = e.get("offset"), e.get("nbytes")
    if not all(type(v) is int and v >= 0 for v in (offset, nbytes)):
        raise CheckpointError(f"{path}: {e['name']}: bad offset/nbytes {offset!r}/{nbytes!r}")
    raw = blob[offset : offset + nbytes]
    if len(raw) != nbytes:
        raise CheckpointError(f"{path}: truncated blob for {e['name']}")
    try:
        arr = np.frombuffer(raw, dtype=np.dtype(e["dtype"])).reshape(e["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {e['name']}: bad dtype/shape ({exc!r})") from exc
    if arr.dtype.kind not in "fiu":
        raise CheckpointError(f"{path}: {e['name']}: non-numeric dtype {arr.dtype}")
    return arr
