"""Randomized cross-backend property harness: the registry-wide oracle.

``tests/engine/test_equivalence.py`` pins a handful of fixed graphs;
this harness generalises it into a *property*: for any seeded graph
from a family spanning the regimes the paper cares about (sparse
background, dense blocks, bipartite-ish triangle-free, hub-and-spoke,
planted modules), **every registered backend on every level store**
must emit the byte-identical maximal clique sequence, the identical
per-size counts, and — for every backend running the paper's
generation step — the byte-identical merged operation counters.  The
store fixes the step (``memory`` and ``disk`` run the raw-word step,
``wah`` the compressed-domain one), so sweeping the stores sweeps both
steps.  Backends with their own documented counter model
(``bitscan``) are exempt from equality *with incore*, but their stores
must still agree with each other, counter for counter.

The matrix is read from the live registry
(:func:`repro.engine.backend_table`) at each call, so a backend
registered tomorrow is covered by tonight's test run without a single
new test being written — ``test_harness_flags_a_defective_backend``
proves that property by registering a deliberately wrong backend and
watching the harness catch it.

The randomized entry point runs under Hypothesis with
``derandomize=True`` (deterministic in CI); a failure shrinks to the
smallest failing ``(family, seed, n)`` and prints the generator seed in
the falsifying example, so one copy-paste reproduces it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro.core import clique_enumerator
from repro.core.clique_enumerator import EnumerationResult
from repro.core.generators import (
    erdos_renyi,
    overlapping_cliques,
    planted_clique,
    planted_partition,
    star_graph,
)
from repro.core.graph import Graph
from repro.core.memory_model import predict_profile, seed_sublist_count
from repro.engine import (
    LEVEL_STORES,
    EnumerationConfig,
    EnumerationEngine,
    backend_table,
    register_backend,
    unregister_backend,
)

ENGINE = EnumerationEngine()

#: backends whose documented operation model differs from the paper's
#: tail-list step — exempt from exact counter equality (their *output*
#: equality is still enforced).  A future backend with its own op model
#: adds itself here, consciously.
COUNTER_MODEL_EXEMPT = frozenset({"bitscan"})

#: seeded graph families spanning the regimes the backends must agree
#: on: sparse background, dense, triangle-free bipartite, hub-and-spoke
#: with noise, and the paper's planted-module shape.
FAMILIES = {
    "sparse": lambda seed, n: erdos_renyi(n, 0.10, seed=seed),
    "dense": lambda seed, n: erdos_renyi(n, 0.45, seed=seed),
    "bipartite": lambda seed, n: planted_partition(
        n, [n // 2, n - n // 2], p_in=0.0, p_out=0.25, seed=seed
    )[0],
    "star": lambda seed, n: _noisy_star(seed, n),
    "clique_planted": lambda seed, n: planted_clique(
        n, max(3, min(n, 3 + seed % 6)), 0.10, seed=seed
    )[0],
}


def _noisy_star(seed: int, n: int) -> Graph:
    """A hub-and-spoke graph plus sparse background noise."""
    g = star_graph(max(2, n))
    noise = erdos_renyi(g.n, 0.05, seed=seed)
    for u, v in noise.edges():
        if u != v:
            g.add_edge(u, v)
    return g


def make_family_graph(family: str, seed: int, n: int) -> Graph:
    """One deterministic graph of a named family (the harness input)."""
    return FAMILIES[family](seed, n)


def _by_size(cliques) -> dict[int, int]:
    counts: dict[int, int] = {}
    for c in cliques:
        counts[len(c)] = counts.get(len(c), 0) + 1
    return counts


def assert_cross_backend_equivalence(
    g: Graph, case: str = "", k_min: int = 1, k_max: int | None = None
) -> None:
    """The harness core: the registry × level-store matrix.

    Asserts, against the ``incore`` reference on the same window:

    * identical maximal clique *sequence* (set and emission order);
    * identical per-size counts;
    * identical ``completed`` flag;
    * ``maximal_emitted`` equals the emitted clique count (every
      backend's own accounting is self-consistent);
    * identical merged counter snapshots for every backend outside
      :data:`COUNTER_MODEL_EXEMPT` — the merge invariant that makes
      per-worker :class:`~repro.core.counters.OpCounters` trustworthy;
    * for exempt backends, identical counter snapshots *across their
      own stores* — the ``wah`` store's compressed step may change the
      word arithmetic, never the documented operation model;
    * for parallel backends, identical level statistics and
      ``domain_stats`` to ``incore`` on the same store.  They run at a
      zero pair budget, so every sub-list is a range of its own and the
      worker pool runs even on the harness's small graphs.
    """
    ref = ENGINE.run(
        g, EnumerationConfig(backend="incore", k_min=k_min, k_max=k_max)
    )
    ref_sizes = _by_size(ref.cliques)
    ref_snapshot = ref.counters.snapshot()
    incore_by_store: dict[str, EnumerationResult] = {}
    # incore first: the parallel backends compare against its stores
    for info in sorted(backend_table(), key=lambda i: i.name != "incore"):
        store_snapshots: dict[str, dict] = {}
        for store in LEVEL_STORES:
            label = (
                f"[{case}] backend={info.name} store={store} "
                f"k_min={k_min} k_max={k_max}"
            )
            config = EnumerationConfig(
                backend=info.name,
                k_min=k_min,
                k_max=k_max,
                level_store=store,
                jobs=2 if info.parallel else None,
            )
            with pytest.MonkeyPatch.context() as patch:
                if info.parallel:
                    patch.setattr(
                        clique_enumerator, "PAIR_BATCH_BYTES", 0
                    )
                res = ENGINE.run(g, config)
            if info.name == "incore":
                incore_by_store[store] = res
            assert res.cliques == ref.cliques, (
                f"clique sequence diverged from incore: {label}"
            )
            assert _by_size(res.cliques) == ref_sizes, (
                f"per-size counts diverged: {label}"
            )
            assert res.completed == ref.completed, (
                f"completed flag diverged: {label}"
            )
            assert res.counters.maximal_emitted == len(res.cliques), (
                f"emission accounting inconsistent: {label}"
            )
            store_snapshots[store] = res.counters.snapshot()
            if info.name not in COUNTER_MODEL_EXEMPT:
                assert store_snapshots[store] == ref_snapshot, (
                    f"merged counters diverged from incore: {label}"
                )
            if info.parallel:
                same_store = incore_by_store[store]
                assert res.level_stats == same_store.level_stats, (
                    f"level statistics diverged from incore: {label}"
                )
                assert res.domain_stats == same_store.domain_stats, (
                    f"domain_stats diverged from incore: {label}"
                )
        first_store, first_snapshot = next(iter(store_snapshots.items()))
        for store, snapshot in store_snapshots.items():
            assert snapshot == first_snapshot, (
                f"[{case}] backend={info.name}: counters diverged "
                f"between level stores {first_store!r} and {store!r}"
            )


# -- randomized entry point (shrinks, prints the generator seed) ----------


@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=4, max_value=36),
)
def test_randomized_equivalence_across_registry(family, seed, n):
    """Any seeded family graph → full matrix agreement (shrinkable)."""
    note(
        "reproduce with: assert_cross_backend_equivalence("
        f"make_family_graph({family!r}, seed={seed}, n={n}))"
    )
    g = make_family_graph(family, seed, n)
    assert_cross_backend_equivalence(
        g, case=f"family={family} seed={seed} n={n}"
    )


# -- deterministic sweeps (always-on, independent of hypothesis profile) --


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_family_sweep_full_matrix(family, seed):
    g = make_family_graph(family, seed, 30)
    assert_cross_backend_equivalence(
        g, case=f"family={family} seed={seed} n=30"
    )


def assert_prediction_bounds_measured(
    g: Graph, case: str = "", k_min: int = 1, k_max: int | None = None
) -> None:
    """Admission control's contract: the memory model's *raw* forward
    prediction bounds the measured candidate-storage peak of every
    level-store substrate.  (The wah store measures its compressed
    footprint and the disk store only a resident window, so the raw
    bound holds for them a fortiori — asserting it against all three
    keeps the matrix honest if a store's accounting ever changes.)"""
    seeds = seed_sublist_count(g) if k_min <= 2 else None
    predicted = predict_profile(g.n, g.m, k_min, seeds, k_max=k_max)
    bound = predicted.peak_bytes("memory")
    for store in LEVEL_STORES:
        res = ENGINE.run(
            g,
            EnumerationConfig(
                backend="incore",
                k_min=k_min,
                k_max=k_max,
                level_store=store,
            ),
        )
        measured = max(
            (ls.candidate_bytes for ls in res.level_stats), default=0
        )
        assert measured <= bound, (
            f"[{case}] store={store} k_min={k_min} k_max={k_max}: "
            f"measured peak {measured} exceeds the admission "
            f"prediction {bound}"
        )


@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=4, max_value=36),
    k_min=st.integers(min_value=1, max_value=3),
)
def test_randomized_prediction_bounds_measured(family, seed, n, k_min):
    """Any seeded family graph: prediction >= measurement (shrinkable)."""
    note(
        "reproduce with: assert_prediction_bounds_measured("
        f"make_family_graph({family!r}, seed={seed}, n={n}), "
        f"k_min={k_min})"
    )
    g = make_family_graph(family, seed, n)
    assert_prediction_bounds_measured(
        g, case=f"family={family} seed={seed} n={n}", k_min=k_min
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_prediction_bound_sweep_store_matrix(family, seed):
    g = make_family_graph(family, seed, 24)
    assert_prediction_bounds_measured(
        g, case=f"family={family} seed={seed} n=24"
    )


def test_window_bounds_agree_across_matrix():
    """Init_K seeding and a k_max cut hit every backend identically."""
    g, _ = overlapping_cliques(40, [7, 7, 6], 3, p=0.02, seed=9)
    assert_cross_backend_equivalence(g, case="window", k_min=3, k_max=5)


def test_empty_and_degenerate_graphs_across_matrix():
    for n, case in ((0, "empty"), (1, "singleton"), (5, "no-edges")):
        assert_cross_backend_equivalence(Graph(n), case=case)


# -- the harness guards the future, not just the present ------------------


def test_harness_flags_a_defective_backend():
    """A backend registered tomorrow is covered tonight.

    Register a deliberately defective backend (drops its last clique)
    and assert the harness rejects it by name — the property that makes
    a fifth, sixth, or tenth registry entry safe without new tests.
    """
    from repro.engine.backends import run_incore

    @register_backend(
        "test-defective",
        description="drops one clique (harness canary)",
    )
    def run_defective(g, config, on_clique=None):
        res = run_incore(g, replace(config, backend="incore"), on_clique)
        if res.cliques:
            res.cliques.pop()
        res.backend = "test-defective"
        return res

    try:
        with pytest.raises(AssertionError, match="test-defective"):
            assert_cross_backend_equivalence(
                make_family_graph("clique_planted", seed=3, n=24),
                case="defective-canary",
            )
    finally:
        unregister_backend("test-defective")


def test_harness_sweeps_the_compute_domain_axis():
    """Every backend is tested on the compressed-domain step.

    The ``wah`` store fixes the compressed-domain step.  Register a
    backend that drops a clique on that store only, while its raw-word
    stores are correct: only a harness that actually runs every store
    can tell them apart — and the failure names the store.
    """
    from repro.engine.backends import run_incore

    @register_backend(
        "test-wahless",
        description="correct raw stores, defective wah (harness canary)",
    )
    def run_wahless(g, config, on_clique=None):
        res = run_incore(g, replace(config, backend="incore"), on_clique)
        if config.level_store == "wah" and res.cliques:
            res.cliques.pop()
        res.backend = "test-wahless"
        return res

    try:
        with pytest.raises(AssertionError, match="store=wah"):
            assert_cross_backend_equivalence(
                make_family_graph("clique_planted", seed=3, n=24),
                case="domain-canary",
            )
    finally:
        unregister_backend("test-wahless")


def test_harness_counter_check_catches_a_lying_merge():
    """A parallel backend whose counter merge drops work is caught."""
    from repro.engine.backends import run_incore

    @register_backend(
        "test-undercount",
        description="forgets half its pair checks (harness canary)",
    )
    def run_undercount(g, config, on_clique=None):
        res = run_incore(g, replace(config, backend="incore"), on_clique)
        res.counters.pair_checks //= 2
        res.backend = "test-undercount"
        return res

    try:
        with pytest.raises(AssertionError, match="test-undercount"):
            assert_cross_backend_equivalence(
                make_family_graph("dense", seed=1, n=20),
                case="undercount-canary",
            )
    finally:
        unregister_backend("test-undercount")
