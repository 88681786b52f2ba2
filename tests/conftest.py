import sys

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
