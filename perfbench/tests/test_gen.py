"""The seeded generators: determinism, shape, and pinned outputs."""

import tracemalloc

import numpy as np
import pytest

from perfbench import gen, inputs

#: generator digests for the held-out seed; a change here changes every
#: workload's inputs and needs GENERATOR_VERSION bumped
PINNED = {
    "genome":
        "576297556d6e96c3908a8021baa0b92f4cfa1a996ffc89c54fae1f4aa8364963",
    "myogenic":
        "77bd61336ec2f68db3e6751e27e5680f004156c40c73707cbbc6acdf6d43a987",
    "sweep-cutoff00":
        "e596ae7d37c0611d2a22707db193c157046814efeb09c234bac6f282627ca8fa",
    "sweep-cutoff11":
        "f60d5a93b5fdd8c68f78796b427f2038a86ca52ca1c06c0aed4f686be8a9d60d",
}


def test_held_out_seed_outputs_are_pinned():
    seed = gen.HELD_OUT_SEED
    sweep = gen.expression_sweep(seed)
    got = {
        "genome": gen.graph_digest(*gen.genome_sparse(seed)),
        "myogenic": gen.graph_digest(*gen.myogenic(seed)),
        "sweep-cutoff00": gen.graph_digest(*sweep[0]),
        "sweep-cutoff11": gen.graph_digest(*sweep[11]),
    }
    assert got == PINNED


@pytest.mark.parametrize("make", [gen.genome_sparse, gen.myogenic,
                                  gen.warmup_graph])
def test_same_seed_same_graph_other_seed_other_graph(make):
    a, b, c = make(5), make(5), make(6)
    assert gen.graph_digest(*a) == gen.graph_digest(*b)
    assert gen.graph_digest(*a) != gen.graph_digest(*c)


def test_same_seed_same_program_fingerprint(tmp_path):
    from repro.core import graph_io

    prints = []
    for i in range(2):
        path = tmp_path / f"g{i}.json"
        gen.write_graph(*gen.myogenic(3), path)
        prints.append(graph_io.graph_fingerprint(graph_io.load(path)))
    assert prints[0] == prints[1]


def test_genome_graph_has_the_papers_shape():
    n, edges = gen.genome_sparse(9)
    assert (n, len(edges)) == (12_422, 6_151)
    assert (edges[:, 0] < edges[:, 1]).all()
    assert len(np.unique(edges[:, 0] * n + edges[:, 1])) == len(edges)
    oracle = inputs.reference(n, edges, 1, None)
    assert max(map(int, oracle["by_size"])) == 17


def test_genome_graph_never_materialises_the_pair_list():
    tracemalloc.start()
    gen.genome_sparse(4)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # the 77 million candidate pairs would need ~1.2 GB as int64 codes
    assert peak < 20_000_000


def test_sweep_modules_stay_whole_and_alone():
    # every cutoff holds exactly the twelve planted modules as its
    # largest cliques: no background gene joins one at any density
    sizes = sorted(size for size, _ in gen.BRAIN_MODULES)
    for n, edges in gen.expression_sweep(8):
        oracle = inputs.reference(n, edges, 6, None)
        big = sorted(int(k) for k, v in oracle["by_size"].items()
                     for _ in range(v))
        assert big == sizes
