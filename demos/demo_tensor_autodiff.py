"""Walk through the reverse-mode tape on a tiny matching-style computation.

Builds a two-layer convolution over a random image, reduces it to a scalar,
backpropagates, and cross-checks a few gradient entries against central
finite differences.
"""

import numpy as np

from mvsgru import tensor as T
from mvsgru.nn import Conv2d
from mvsgru.tensor import Tape, Tensor, backward

rng = np.random.default_rng(0)
T.set_default_dtype(np.float64)

image = Tensor(rng.standard_normal((3, 12, 12)), requires_grad=True)
conv1 = Conv2d(3, 8, 3, rng, leaky=True)  # leaky ReLU fused into the conv
conv2 = Conv2d(8, 4, 3, rng)


def forward():
    h = conv1(image)
    return (conv2(h).softmax(0) * conv2(h)).sum()


with Tape() as tape:
    loss = forward()
backward(tape, loss)
print(f"loss = {loss.item():.6f}")
print(f"image grad: shape {image.grad.shape}, "
      f"mean |g| = {np.abs(image.grad).mean():.3e}")

# spot-check four pixels against finite differences
h = 1e-6
worst = 0.0
for (c, y, x) in [(0, 3, 3), (1, 6, 2), (2, 9, 9), (0, 0, 11)]:
    keep = image.data[c, y, x]
    image.data[c, y, x] = keep + h
    up = forward().item()
    image.data[c, y, x] = keep - h
    down = forward().item()
    image.data[c, y, x] = keep
    fd = (up - down) / (2 * h)
    err = abs(fd - image.grad[c, y, x]) / max(1.0, abs(fd))
    worst = max(worst, err)
    print(f"d loss / d image[{c},{y},{x}]: tape {image.grad[c, y, x]:+.8f} "
          f"fd {fd:+.8f} rel err {err:.2e}")
print("worst relative error:", f"{worst:.2e}", "(ok)" if worst < 1e-6 else "")
