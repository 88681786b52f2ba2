import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from ellipkurt import linalg

# Property tests draw the same examples in every process: derandomize seeds
# hypothesis from each test function and turns off its example database.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def gram_builds(monkeypatch):
    """Shapes of the data that centered Gram summaries were built from.

    The real ``linalg.centered_gram`` is wrapped in every ellipkurt module
    that imports it; a call handed a ready summary builds nothing and is not
    recorded.
    """
    real = linalg.centered_gram
    built = []

    def counting(X, overwrite_x=False):
        if not isinstance(X, linalg.CenteredGram):
            built.append(np.shape(X))
        return real(X, overwrite_x=overwrite_x)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ellipkurt" and getattr(module, "centered_gram", None) is real:
            monkeypatch.setattr(module, "centered_gram", counting)
    return built


class FakeOpenBlas:
    """Stands in for numpy's OpenBLAS: a thread count and a log of sets,
    and the real library's ``dtbtrs`` and ``dtrtrs``, so that AR(1) roots
    and dense whitening still solve."""

    def __init__(self, path, count, real):
        self.path, self.count, self.sets = path, count, []
        self.dtbtrs, self.dtrtrs = real.dtbtrs, real.dtrtrs

    def get(self):
        return self.count

    def set(self, count):
        self.sets.append(count)
        self.count = count


@pytest.fixture
def fake_blas(monkeypatch):
    """A fresh ``linalg.OpenBlas`` over a fake library at 4 threads,
    installed in every ellipkurt module that reads ``OPENBLAS``.

    ``lib`` is the fake and ``lookups`` counts library lookups; setting
    ``lib`` to None before first use makes the lookup find none.
    """
    real, reason = linalg._find_openblas()
    if real is None:
        pytest.skip(f"no bundled OpenBLAS: {reason}")
    state = SimpleNamespace(lib=FakeOpenBlas("numpy", 4, real), lookups=0)

    def find():
        state.lookups += 1
        return state.lib, None if state.lib else "no library (fake)"

    monkeypatch.setattr(linalg, "_find_openblas", find)
    real_blas = linalg.OPENBLAS
    state.blas = linalg.OpenBlas()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ellipkurt" and getattr(module, "OPENBLAS", None) is real_blas:
            monkeypatch.setattr(module, "OPENBLAS", state.blas)
    return state
