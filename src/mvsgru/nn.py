"""Parameter containers, convolution modules, init, and checkpoint files."""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FileFormatError, ShapeError
from .tensor import Tensor, conv2d

CHECKPOINT_MAGIC = b"IMVS"
CHECKPOINT_VERSION = 1


class Module:
    """Minimal parameter container; children are discovered by attribute walk."""

    def named_parameters(self, prefix: str = ""):
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Tensor):
                if value.requires_grad:
                    yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}.")

    def parameters(self) -> dict[str, Tensor]:
        return dict(self.named_parameters())

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        missing = sorted(set(params) - set(state))
        extra = sorted(set(state) - set(params))
        if missing or extra:
            raise ShapeError(f"checkpoint mismatch: missing {missing}, unexpected {extra}")
        for name, p in params.items():
            arr = state[name]
            if tuple(arr.shape) != tuple(p.shape):
                raise ShapeError(f"parameter {name}: checkpoint {arr.shape} vs model {p.shape}")
            p.data = arr.astype(p.data.dtype)


def kaiming_conv(rng: np.random.Generator, c_out: int, c_in: int, k: int) -> np.ndarray:
    """Fan-in scaled normal init for conv weights."""
    fan_in = c_in * k * k
    std = np.sqrt(2.0 / fan_in)
    return rng.standard_normal((c_out, c_in, k, k)) * std


class Conv2d(Module):
    """Conv layer with learned weight/bias and same-size padding (k - 1) // 2;
    with ``leaky`` its output goes through a leaky ReLU, fused into the one
    ``conv2d`` op."""

    def __init__(self, c_in: int, c_out: int, k: int, rng: np.random.Generator,
                 stride: int = 1, leaky: bool = False):
        self.stride = stride
        self.padding = (k - 1) // 2
        self.leaky = leaky
        self.weight = Tensor(kaiming_conv(rng, c_out, c_in, k), requires_grad=True)
        # uniform rather than zero bias keeps pre-activations off the exact
        # leaky-relu corner when a receptive field is entirely masked out
        bound = 1.0 / np.sqrt(c_in * k * k)
        self.bias = Tensor(rng.uniform(-bound, bound, c_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding, self.leaky)


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------
#
# Little-endian binary layout:
#   magic   4 bytes  b"IMVS"
#   version u32
#   count   u32      number of parameters
# then per parameter, in the order written:
#   name_len u16, name utf-8 bytes
#   rank     u8,  extents u32 * rank
#   payload  float32 * prod(extents), C order


def save_checkpoint(path, params: dict[str, np.ndarray | Tensor]) -> None:
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(params)))
        for name, value in params.items():
            # asarray keeps 0-d shapes; ascontiguousarray would promote
            # scalars to rank 1 and break the shape check on load
            arr = np.asarray(value.data if isinstance(value, Tensor) else value,
                             dtype="<f4", order="C")
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        blob = f.read()
    off = 0

    def need(n, what):
        nonlocal off
        if off + n > len(blob):
            raise FileFormatError(path, off, f"truncated while reading {what}")
        chunk = blob[off:off + n]
        off += n
        return chunk

    if need(4, "magic") != CHECKPOINT_MAGIC:
        raise FileFormatError(path, 0, "bad magic, not a checkpoint")
    version, count = struct.unpack("<II", need(8, "header"))
    if version != CHECKPOINT_VERSION:
        raise FileFormatError(path, 4, f"unsupported version {version}")
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", need(2, "name length"))
        try:
            name = need(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise FileFormatError(path, off - name_len, "parameter name is not UTF-8") from None
        (rank,) = struct.unpack("<B", need(1, "rank"))
        shape = struct.unpack(f"<{rank}I", need(4 * rank, "extents"))
        n = math.prod(shape)  # exact: numpy's int64 product can wrap to a negative size
        payload = need(4 * n, f"payload of {name}")
        try:
            params[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
        except ValueError:  # a zero extent beside extents numpy cannot address
            raise FileFormatError(path, off, f"bad extents {shape} for {name}") from None
    if off != len(blob):
        raise FileFormatError(path, off, "trailing bytes after last parameter")
    return params
