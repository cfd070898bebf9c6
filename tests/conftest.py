import pytest

from lie2alg import random_algebra
from lie2alg.builders import RandomProfile


@pytest.fixture(scope="session")
def corpus_1000():
    """Shared seeded corpus for the large property-based criteria."""
    return [random_algebra(seed) for seed in range(1000)]


@pytest.fixture(scope="session")
def corpus_100(corpus_1000):
    return corpus_1000[:100]


@pytest.fixture(scope="session")
def oracle_algebras():
    """``random_algebra(seed, RandomProfile(max_dim_u=u))`` for seeds 0-59,
    by u = 0..3: the seeded algebras of the decomposition oracle."""
    return {u: [random_algebra(seed, RandomProfile(max_dim_u=u)) for seed in range(60)]
            for u in range(4)}
