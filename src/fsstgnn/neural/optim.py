"""Adam optimizer over named parameter tensors."""

import numpy as np

from ..errors import NumericError
from .autodiff import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction and the constants BETA1, BETA2 and EPS.

    Every parameter is a leaf Tensor, so its gradient buffer exists from
    construction. A parameter whose buffer is still zero is left untouched
    (zero first and second moments give a zero step).
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        self._m = {name: np.zeros_like(p.values) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.values) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad[...] = 0.0

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            grad, m, v = p.grad, self._m[name], self._v[name]
            if not np.all(np.isfinite(grad)):
                raise NumericError(f"non-finite gradient for parameter {name!r}")
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad ** 2
            m_hat = m / (1.0 - BETA1 ** t)
            v_hat = v / (1.0 - BETA2 ** t)
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
