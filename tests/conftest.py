import itertools
import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from lightspanner.generate import generate_graph
from lightspanner.graph import WeightedGraph

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

# weights are multiples of 1/64 so float sums along short paths are exact
dyadic_weights = st.integers(min_value=1, max_value=128).map(lambda k: k / 64.0)
# four weights only: distinct paths tie on length and bottleneck often, which
# exercises every tie-break of the scan kernel
coarse_weights = st.integers(min_value=1, max_value=4).map(lambda k: k / 4.0)


@st.composite
def connected_graphs(draw, min_n=2, max_n=12, max_extra=12, weights=dyadic_weights):
    """A random tree plus extra edges; always connected, dyadic weights."""
    n = draw(st.integers(min_n, max_n))
    edges: dict[tuple[int, int], float] = {}
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges[(u, v)] = draw(weights)
    for _ in range(draw(st.integers(0, max_extra))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key not in edges:
            edges[key] = draw(weights)
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


def random_connected_graph(n: int, m_extra: int, seed: int) -> WeightedGraph:
    """Seeded non-hypothesis variant for deterministic loops in tests."""
    rng = random.Random(seed)
    edges: dict[tuple[int, int], float] = {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges[(u, v)] = rng.randint(1, 128) / 64.0
    tries = 0
    while len(edges) < n - 1 + m_extra and tries < 20 * m_extra:
        tries += 1
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key not in edges:
            edges[key] = rng.randint(1, 128) / 64.0
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


def erdos_renyi_with_a_heavy_edge(n: int, seed: int, weight: float) -> WeightedGraph:
    """A G(n,p) graph plus one edge of ``weight`` between the first two
    vertices it does not join; at 1e6 no shortest path uses that edge."""
    g = generate_graph("erdos_renyi", n, seed=seed)
    u, v = next((u, v) for u, v in itertools.combinations(range(n), 2) if not g.has_edge(u, v))
    return WeightedGraph(n, [*g.iter_edges(), (u, v, weight)])


@pytest.fixture(scope="session")
def medium_geometric():
    return generate_graph("geometric_unit_square", 150, seed=11)
