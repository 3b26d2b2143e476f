import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from projflow import (
    ChartPoint,
    sample_interior_point,
    single_spin_conserved_sx,
    two_qubit_product_system,
)

SPIN_SINGULAR = ((0.0, 0.5), (np.pi, 0.5), (2 * np.pi, 0.5))


@pytest.fixture(scope="session")
def two_qubit():
    return two_qubit_product_system()


@pytest.fixture(scope="session")
def spin():
    return single_spin_conserved_sx()


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def spin_grid(exclusion=1e-3, nq=23, np_=17):
    """Interior (q, p) grid for the single-spin system avoiding the two
    genuinely singular fixed points by the given radius."""
    points = []
    for q in np.linspace(0.05, 2 * np.pi - 0.05, nq):
        for p in np.linspace(0.1, 0.9, np_):
            if min(np.hypot(q - sq, p - sp) for sq, sp in SPIN_SINGULAR) < exclusion:
                continue
            points.append(ChartPoint([q], [p]))
    return points


def random_interior(rng, pairs, count):
    return [sample_interior_point(rng, pairs) for _ in range(count)]

