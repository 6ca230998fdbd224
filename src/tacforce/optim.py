"""Adam with parameter groups.

Groups let the caller run different learning rates for different parts
of the model (backbone vs. heads). Moment buffers are allocated lazily
per parameter and survive across steps.
"""

import numpy as np

from .errors import ContractError


class Adam:
    def __init__(self, groups, beta1=0.9, beta2=0.999, eps=1e-8):
        """`groups` is a list of dicts: {"params": [Tensor, ...], "lr": float}.

        Anything else, a bare list of tensors included, raises
        ContractError.
        """
        if not groups:
            raise ContractError("Adam needs at least one parameter group")
        if not all(isinstance(g, dict) for g in groups):
            raise ContractError("pass parameter groups as dicts with 'params' and 'lr'")
        self.groups = [{"params": list(g["params"]), "lr": float(g["lr"])} for g in groups]
        seen = set()
        for g in self.groups:
            for p in g["params"]:
                if not p.requires_grad:
                    raise ContractError("optimizer given a tensor with requires_grad=False")
                if id(p) in seen:
                    raise ContractError("parameter appears in more than one group")
                seen.add(id(p))
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {}
        self._v = {}

    def zero_grad(self):
        for g in self.groups:
            for p in g["params"]:
                p.grad = None

    def step(self):
        """One Adam update using whatever is in each parameter's .grad."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for g in self.groups:
            lr = g["lr"]
            for p in g["params"]:
                if p.grad is None:
                    continue
                key = id(p)
                m = self._m.get(key)
                if m is None:
                    m = np.zeros_like(p.data)
                    v = np.zeros_like(p.data)
                else:
                    v = self._v[key]
                m = b1 * m + (1.0 - b1) * p.grad
                v = b2 * v + (1.0 - b2) * np.square(p.grad)
                self._m[key] = m
                self._v[key] = v
                mhat = m / bc1
                vhat = v / bc2
                p.data = p.data - lr * mhat / (np.sqrt(vhat) + self.eps)

