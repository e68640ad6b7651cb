"""Adam with bias correction, operating in place on parameter data."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainStepError
from .tensor import Tensor


@dataclass
class AdamState:
    """First/second moment estimates and the shared step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.state = AdamState()

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """One update. Parameters with no gradient receive a zero gradient.

        Raises TrainStepError (naming the parameter) on NaN gradients, before
        any parameter is modified.
        """
        grads = {}
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if np.isnan(g).any():
                raise TrainStepError(f"NaN gradient in parameter {name}")
            grads[name] = g
        st = self.state
        st.step += 1
        bc1 = 1.0 - BETA1 ** st.step
        bc2 = 1.0 - BETA2 ** st.step
        for name, p in self.params.items():
            g = grads[name]
            if name not in st.m:
                st.m[name] = np.zeros_like(p.data)
                st.v[name] = np.zeros_like(p.data)
            m = st.m[name]
            v = st.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + EPS)).astype(p.data.dtype)
