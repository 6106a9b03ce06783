import random

import pytest

from suboplex import FunctionClass, SimplicialComplex, SubsetPoset, intersection_closure


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        type=int,
        default=20250809,
        help="seed for randomized property tests",
    )


@pytest.fixture
def rng(request) -> random.Random:
    return random.Random(request.config.getoption("--seed"))


# facets of the minimal (6-vertex) triangulation of the real projective plane
RP2_FACETS = [
    0b010011, 0b100011, 0b001101, 0b010101, 0b101001,
    0b001110, 0b100110, 0b011010, 0b110100, 0b111000,
]


def random_poset(rng: random.Random, max_n: int = 4) -> SubsetPoset:
    n = rng.randint(1, max_n)
    masks = {rng.getrandbits(n) for _ in range(rng.randint(1, 7))}
    return SubsetPoset.from_masks(n, masks)


def random_intersection_closed_poset(rng: random.Random, max_n: int = 5) -> SubsetPoset:
    n = rng.randint(1, max_n)
    masks = {rng.getrandbits(n) for _ in range(rng.randint(1, 6))}
    return SubsetPoset.from_masks(n, intersection_closure(masks))


def random_complex(rng: random.Random, max_n: int = 6) -> SimplicialComplex:
    nv = rng.randint(1, max_n)
    facets = {rng.getrandbits(nv) for _ in range(rng.randint(1, 5))}
    return SimplicialComplex.from_facets(nv, facets)


def random_class(
    rng: random.Random, max_n: int = 5, max_size: int = 8
) -> FunctionClass:
    n = rng.randint(1, max_n)
    size = rng.randint(1, min(1 << n, max_size))
    return FunctionClass.from_masks(n, rng.sample(range(1 << n), size))
