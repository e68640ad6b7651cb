"""Adam with bias correction, operating in place on parameter data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrainStepError
from .tensor import Tensor


@dataclass
class AdamState:
    """First/second moment estimates, one flat buffer each over every
    parameter in the optimizer's order, and the shared step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        sizes = [p.data.size for p in params.values()]
        ends = np.cumsum(sizes)
        # each parameter's slice of the flat buffers
        self._spans = [slice(e - n, e) for n, e in zip(sizes, ends)]
        dtype = np.result_type(*(p.data.dtype for p in params.values()))
        m, v, self._g, self._work = (np.zeros(ends[-1], dtype) for _ in range(4))
        self.state = AdamState(m, v)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """One update. Parameters with no gradient receive a zero gradient.

        The gradients are concatenated into one flat buffer and updated
        with the flat moments by whole-buffer operations in place; each
        parameter then takes its slice of the update.  The arithmetic is
        element for element that of a loop over the parameters.

        Raises TrainStepError (naming the parameter) on NaN gradients, before
        any parameter is modified.
        """
        params = list(self.params.values())
        g, work = self._g, self._work
        np.concatenate([p.grad.ravel() if p.grad is not None else np.zeros(p.data.size, g.dtype)
                        for p in params], out=g)
        if np.isnan(g).any():
            name = next(n for n, span in zip(self.params, self._spans) if np.isnan(g[span]).any())
            raise TrainStepError(f"NaN gradient in parameter {name}")
        st = self.state
        st.step += 1
        bc1 = 1.0 - BETA1 ** st.step
        bc2 = 1.0 - BETA2 ** st.step
        m, v = st.m, st.v
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=work)
        v *= BETA2
        v += np.multiply(np.multiply(g, 1.0 - BETA2, out=work), g, out=work)
        # g becomes the update lr·m̂ / (√v̂ + eps)
        np.multiply(np.divide(m, bc1, out=g), self.lr, out=g)
        g /= np.add(np.sqrt(np.divide(v, bc2, out=work), out=work), EPS, out=work)
        for p, span in zip(params, self._spans):
            p.data -= g[span].reshape(p.data.shape)
