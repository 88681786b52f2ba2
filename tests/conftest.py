import sys
from types import SimpleNamespace

import numpy as np
import pytest

from ellipkurt import linalg


@pytest.fixture
def gram_builds(monkeypatch):
    """Shapes of the data that centered Gram summaries were built from.

    The real ``linalg.centered_gram`` is wrapped in every ellipkurt module
    that imports it; a call handed a ready summary builds nothing and is not
    recorded.
    """
    real = linalg.centered_gram
    built = []

    def counting(X):
        if not isinstance(X, linalg.CenteredGram):
            built.append(np.shape(X))
        return real(X)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ellipkurt" and getattr(module, "centered_gram", None) is real:
            monkeypatch.setattr(module, "centered_gram", counting)
    return built


class FakeOpenBlas:
    """Stands in for an OpenBLAS library: a thread count and a log of sets."""

    def __init__(self, path, count):
        self.path, self.count, self.sets = path, count, []

    def get(self):
        return self.count

    def set(self, count):
        self.sets.append(count)
        self.count = count


@pytest.fixture
def fake_blas(monkeypatch):
    """A fresh ``BlasThreadLimit`` over two fake libraries at 4 threads,
    installed in every ellipkurt module that reads ``BLAS_LIMIT``.

    ``libs`` are the fakes and ``lookups`` counts library lookups; setting
    ``libs`` to an empty list before first use makes the lookup find none.
    """
    state = SimpleNamespace(libs=[FakeOpenBlas("numpy", 4), FakeOpenBlas("scipy", 4)],
                            lookups=0)

    def find():
        state.lookups += 1
        return state.libs, None if state.libs else "no library (fake)"

    monkeypatch.setattr(linalg, "find_openblas", find)
    real = linalg.BLAS_LIMIT
    state.limit = linalg.BlasThreadLimit()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ellipkurt" and getattr(module, "BLAS_LIMIT", None) is real:
            monkeypatch.setattr(module, "BLAS_LIMIT", state.limit)
    return state
