import pytest

import hadsplit.core
import hadsplit.schemes
import hadsplit.splitting
from hadsplit import delete_allones_transform, twin_sylvester


@pytest.fixture(scope="session")
def twin16():
    """Order-16 twin partition; reports carry (16,4,4,0) and twice (16,6,2,-2)."""
    return twin_sylvester(2)


@pytest.fixture(scope="session")
def split_16_9(twin16):
    """The (16, 9, 1, -3) split obtained by deleting the all-ones row."""
    return delete_allones_transform(twin16.h, twin16.reports[1])


@pytest.fixture
def kernel_calls(monkeypatch):
    """Operand shapes of every exact_matmul call, from every module that calls it."""
    shapes = []
    kernel = hadsplit.core.exact_matmul

    def counting(a, b):
        shapes.append((a.shape, b.shape))
        return kernel(a, b)

    for module in (hadsplit.core, hadsplit.splitting, hadsplit.schemes):
        monkeypatch.setattr(module, "exact_matmul", counting)
    return shapes
