"""The oracle check: the program's output against networkx."""

import numpy as np
import pytest

from perfbench import gen, inputs


@pytest.fixture(scope="module")
def small():
    n, edges = gen.warmup_graph(7)
    return n, edges, inputs.reference(n, edges, 3, None)


def program_cliques(n, edges, k_min):
    from repro.core.graph import Graph
    from repro.engine import EnumerationConfig, EnumerationEngine
    from repro.service.sinks import CollectSink

    g = Graph.from_edges(n, [tuple(e) for e in edges.tolist()])
    sink = CollectSink()
    EnumerationEngine().run_with_sink(g, EnumerationConfig(k_min=k_min),
                                      sink)
    return sink.cliques


def test_the_program_matches_the_oracle(small):
    n, edges, expected = small
    cliques = program_cliques(n, edges, 3)
    assert inputs.check(inputs.summarize(cliques), expected) == []
    assert expected["by_size"]["10"] == 1


@pytest.mark.parametrize("corrupt", [
    lambda cs: cs[1:],                              # a clique dropped
    lambda cs: cs + [cs[0]],                        # one emitted twice
    lambda cs: [cs[0][:-1]] + cs[1:],               # a non-maximal one
    lambda cs: [(cs[0][0] + 1,) + cs[0][1:]] + cs[1:],  # a wrong vertex
])
def test_a_corrupted_clique_list_is_rejected(small, corrupt):
    n, edges, expected = small
    cliques = [tuple(c) for c in program_cliques(n, edges, 3)]
    problems = inputs.check(inputs.summarize(corrupt(cliques)), expected)
    assert problems
    assert any(p.startswith("digest") for p in problems)


def test_count_only_results_are_checked_on_their_counts(small):
    _, _, expected = small
    counts = {"cliques": expected["cliques"],
              "by_size": dict(expected["by_size"])}
    assert inputs.check(counts, expected) == []
    counts["by_size"]["3"] += 1
    assert inputs.check(counts, expected)


def test_the_oracle_filters_to_the_window():
    edges = np.array([[0, 1], [1, 2], [0, 2], [3, 4]])
    assert inputs.reference(6, edges, 1, None)["by_size"] == {
        "1": 1, "2": 1, "3": 1}
    assert inputs.reference(6, edges, 2, 2)["by_size"] == {"2": 1}
