"""Cross-backend equivalence: the registry-wide output invariant.

Every backend docstring promises output identical to the sequential
in-core driver; this suite is the single place that invariant is
enforced across *all* registered backends at once — identical maximal
clique sets and identical per-size counts on a spread of random
``generators`` graphs and size windows.
"""

from __future__ import annotations

import pytest

from repro.core.generators import (
    barbell_graph,
    erdos_renyi,
    overlapping_cliques,
    planted_clique,
    planted_partition,
)
from repro.core.graph import Graph
from repro.engine import (
    EnumerationConfig,
    EnumerationEngine,
    available_backends,
    get_backend,
)

ENGINE = EnumerationEngine()

#: every graph here is enumerated on every backend.
GRAPHS = {
    "er_sparse": lambda: erdos_renyi(40, 0.12, seed=7),
    "er_dense": lambda: erdos_renyi(24, 0.45, seed=3),
    "planted": lambda: planted_clique(45, 8, 0.12, seed=5)[0],
    "overlap": lambda: overlapping_cliques(40, [7, 7, 6], 3, seed=2)[0],
    "partition": lambda: planted_partition(
        60, [9, 8, 7], p_in=0.9, p_out=0.03, seed=4
    )[0],
    "barbell": lambda: barbell_graph(5),
}


def _by_size_counts(cliques):
    counts: dict[int, int] = {}
    for c in cliques:
        counts[len(c)] = counts.get(len(c), 0) + 1
    return counts


def _config(backend, **kw):
    """Per-backend config: jobs only where the backend is parallel."""
    jobs = 2 if get_backend(backend).parallel else None
    return EnumerationConfig(backend=backend, jobs=jobs, **kw)


#: the (graph, k_min, k_max) windows the tests below actually consume.
REFERENCE_KEYS = [(g, 2, None) for g in GRAPHS] + [
    ("planted", 3, None),
    ("er_dense", 2, 4),
]


@pytest.fixture(scope="module")
def reference():
    """Incore results for every consumed graph/window, computed once."""
    out = {}
    for gname, k_min, k_max in REFERENCE_KEYS:
        res = ENGINE.run(
            GRAPHS[gname](),
            EnumerationConfig(backend="incore", k_min=k_min, k_max=k_max),
        )
        out[(gname, k_min, k_max)] = sorted(res.cliques)
    return out


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_identical_clique_sets(backend, gname, reference):
    """Same maximal cliques and per-size counts as the incore reference."""
    g = GRAPHS[gname]()
    config = _config(backend, k_min=2)
    got = sorted(ENGINE.run(g, config).cliques)
    want = reference[(gname, 2, None)]
    assert got == want
    assert _by_size_counts(got) == _by_size_counts(want)


@pytest.mark.parametrize("backend", available_backends())
def test_identical_at_k_min_1_with_isolated_vertices(backend):
    """k_min=1 emits isolated vertices on *every* backend."""
    base = barbell_graph(4)
    g = Graph(base.n + 3)  # three isolated vertices appended
    for u in range(base.n):
        for v in base.neighbors(u).tolist():
            if u < v:
                g.add_edge(u, int(v))
    config = _config(backend, k_min=1)
    got = sorted(ENGINE.run(g, config).cliques)
    want = sorted(
        ENGINE.run(g, EnumerationConfig(backend="incore", k_min=1)).cliques
    )
    assert got == want
    assert {(base.n,), (base.n + 1,), (base.n + 2,)} <= set(got)


@pytest.mark.parametrize("backend", available_backends())
def test_identical_with_init_k_seeding(backend, reference):
    """Init_K = 3 seeding agrees across the whole registry."""
    g = GRAPHS["planted"]()
    config = _config(backend, k_min=3)
    got = sorted(ENGINE.run(g, config).cliques)
    assert got == reference[("planted", 3, None)]


@pytest.mark.parametrize("backend", available_backends())
def test_identical_with_k_max(backend, reference):
    """An upper size bound cuts every backend at the same place, and
    every backend reports the same (incomplete) completed flag."""
    g = GRAPHS["er_dense"]()
    config = _config(backend, k_min=2, k_max=4)
    res = ENGINE.run(g, config)
    assert sorted(res.cliques) == reference[("er_dense", 2, 4)]
    incore = ENGINE.run(
        g, EnumerationConfig(backend="incore", k_min=2, k_max=4)
    )
    assert res.completed == incore.completed


@pytest.mark.parametrize("backend", available_backends())
def test_identical_at_degenerate_k_max_1(backend):
    """k_max=1 yields exactly the isolated vertices on every backend."""
    g = Graph.from_edges(5, [(0, 1), (1, 2)])  # vertices 3, 4 isolated
    config = _config(backend, k_min=1, k_max=1)
    res = ENGINE.run(g, config)
    assert sorted(res.cliques) == [(3,), (4,)]


@pytest.mark.parametrize("backend", available_backends())
def test_streaming_sink_matches_collection(backend):
    """on_clique streams the same cliques the result would collect."""
    g = GRAPHS["overlap"]()
    config = _config(backend, k_min=2)
    seen: list[tuple[int, ...]] = []
    res = ENGINE.run(g, config, on_clique=seen.append)
    assert res.cliques == []
    assert sorted(seen) == sorted(ENGINE.run(g, config).cliques)


@pytest.mark.parametrize("backend", available_backends())
def test_result_carries_backend_name(backend):
    g = barbell_graph(4)
    res = ENGINE.run(g, _config(backend))
    assert res.backend == backend
    assert res.wall_seconds > 0


@pytest.mark.parametrize("store", ["memory", "disk", "wah"])
@pytest.mark.parametrize("backend", ["incore", "bitscan"])
@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_identical_on_every_level_store(backend, store, gname, reference):
    """The level-store policy never changes the emitted clique set:
    every sequential backend on every substrate (including the disk
    spill of the paper's out-of-core mode and the WAH compressed store,
    which runs the compressed-domain step) matches the incore
    reference."""
    g = GRAPHS[gname]()
    config = EnumerationConfig(backend=backend, k_min=2, level_store=store)
    got = sorted(ENGINE.run(g, config).cliques)
    assert got == reference[(gname, 2, None)]
