"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and uses only numpy's
``default_rng(seed)``, so the same seed gives the same graph on every
host.  The program under test never sees a generator: it receives the
graph files :func:`write_graph` produces.  None of this imports
``repro`` — a change to the program's own generators cannot move the
benchmark's inputs.

Graphs are ``(n, edges)`` pairs, ``edges`` an ``(m, 2)`` int64 array of
canonical ``u < v`` rows in ascending order.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

#: one seed set aside for validating a later performance claim on data
#: that was not used while the claimed change was being written.
HELD_OUT_SEED = 20051113

#: bump when any generator or any family's set of inputs changes, so
#: cached inputs are rebuilt.
GENERATOR_VERSION = 2

#: the mouse-brain planted modules (size, within-module correlation):
#: the repo's 1/10-scale analog of the paper's sparse brain graph, whose
#: largest module is the paper's maximum clique of 17.
BRAIN_MODULES = (
    (17, 0.985), (15, 0.98), (14, 0.98), (12, 0.975), (12, 0.975),
    (10, 0.97), (10, 0.97), (9, 0.97), (8, 0.965), (8, 0.965),
    (7, 0.96), (6, 0.96),
)

#: the paper's sparse mouse-brain graph (Section 3): 12,422 probe sets,
#: 6,151 edges (0.008 %), maximum clique 17.
GENOME_N = 12_422
GENOME_M = 6_151

#: the 1/10 expression set behind the threshold sweep.
SWEEP_GENES = 1_242
SWEEP_CONDITIONS = 64
#: graph densities of the sweep's cutoffs: every one keeps the planted
#: modules whole (their 682 edges are 0.0885 % of the pairs), so the
#: cutoffs differ only in how much background correlation they admit.
SWEEP_DENSITIES = tuple(
    round(0.0009 * 2.0 ** (i / 11), 6) for i in range(12)
)
#: largest |Spearman rho| a background gene may have with a module
#: profile; below every cutoff of the sweep (rho ~0.41 at 0.18 %)
BACKGROUND_LIMIT = 0.33


def _canonical(n: int, codes: np.ndarray) -> tuple[int, np.ndarray]:
    codes = np.unique(codes)
    return n, np.stack([codes // n, codes % n], axis=1)


def _clique_codes(n: int, members: np.ndarray) -> np.ndarray:
    members = np.sort(members)
    iu, ju = np.triu_indices(len(members), k=1)
    return members[iu] * n + members[ju]


def genome_sparse(seed: int) -> tuple[int, np.ndarray]:
    """The full-scale sparse mouse-brain graph: 12,422 vertices, exactly
    6,151 edges, the twelve brain modules planted as cliques on random
    vertices, the rest uniform background edges.

    Background pairs are drawn by rejection from ``rng.integers``, so
    the ~77 million vertex pairs are never materialised.
    """
    n, m = GENOME_N, GENOME_M
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    codes = []
    cursor = 0
    for size, _ in BRAIN_MODULES:
        codes.append(_clique_codes(n, perm[cursor:cursor + size]))
        cursor += size
    edges = np.unique(np.concatenate(codes))
    while len(edges) < m:
        pairs = rng.integers(0, n, size=(2 * (m - len(edges)), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        pairs.sort(axis=1)
        fresh = pairs[:, 0] * n + pairs[:, 1]
        # keep first occurrences in draw order, then top up to exactly m
        _, first = np.unique(fresh, return_index=True)
        fresh = fresh[np.sort(first)]
        fresh = fresh[~np.isin(fresh, edges)][: m - len(edges)]
        edges = np.union1d(edges, fresh)
    return _canonical(n, edges)


def myogenic(seed: int) -> tuple[int, np.ndarray]:
    """The scaled myogenic-differentiation graph (724 vertices, max
    clique 14): the structure of ``repro.experiments.workloads.
    myogenic_like`` — a chain of overlapping planted cliques (the
    paper's 28 halved) plus small disjoint modules over G(n, 0.008)
    background — with the background drawn from ``seed``.
    """
    n = 724
    sizes = (14, 13, 13, 12, 12, 11, 11, 10, 10, 9, 9)
    overlap = 7
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    codes = [(iu * n + ju)[rng.random(iu.size) < 0.008]]
    cursor = 0
    tail = np.empty(0, dtype=np.int64)
    for size in sizes:
        fresh = np.arange(cursor, cursor + size - len(tail))
        members = np.concatenate([tail, fresh])
        cursor += len(fresh)
        codes.append(_clique_codes(n, members))
        tail = members[-overlap:]
    for size, count in ((8, 14), (7, 34), (6, 26), (5, 30)):
        for _ in range(count):
            codes.append(
                _clique_codes(n, np.arange(cursor, cursor + size))
            )
            cursor += size
    return _canonical(n, np.concatenate(codes))


def _ranks(x: np.ndarray) -> np.ndarray:
    return np.argsort(np.argsort(x, axis=-1), axis=-1).astype(np.float64)


def _spearman_abs_upper(seed: int) -> np.ndarray:
    """|Spearman rho| of every gene pair (upper triangle, row-major)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(SWEEP_GENES, SWEEP_CONDITIONS))
    perm = rng.permutation(SWEEP_GENES)
    # mutually uncorrelated module profiles: two modules whose random
    # profiles happened to correlate would merge into one larger clique
    draws = rng.normal(size=(SWEEP_CONDITIONS, len(BRAIN_MODULES)))
    profiles, _ = np.linalg.qr(draws - draws.mean(axis=0))
    profiles *= np.sqrt(SWEEP_CONDITIONS)
    cursor = 0
    for j, (size, rho) in enumerate(BRAIN_MODULES):
        members = perm[cursor:cursor + size]
        cursor += size
        noise = rng.normal(size=(size, SWEEP_CONDITIONS))
        x[members] = (np.sqrt(rho) * profiles[:, j]
                      + np.sqrt(1 - rho) * noise)
    # background genes are redrawn until none follows a module profile:
    # one that did would join that module's clique at the denser
    # cutoffs, doubling its sub-cliques, and the sweep's work would vary
    # several-fold from seed to seed
    background = perm[cursor:]
    profile_ranks = _ranks(profiles.T)
    profile_ranks -= profile_ranks.mean(axis=1, keepdims=True)
    profile_ranks /= np.linalg.norm(profile_ranks, axis=1, keepdims=True)
    while True:
        r = _ranks(x[background])
        r -= r.mean(axis=1, keepdims=True)
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        follows = np.abs(r @ profile_ranks.T).max(axis=1) > BACKGROUND_LIMIT
        if not follows.any():
            break
        redraw = background[follows]
        x[redraw] = rng.normal(size=(len(redraw), SWEEP_CONDITIONS))
    corr = np.corrcoef(_ranks(x))
    iu, ju = np.triu_indices(SWEEP_GENES, k=1)
    return np.abs(corr[iu, ju])


def expression_sweep(seed: int) -> list[tuple[int, np.ndarray]]:
    """A 12-cutoff Spearman threshold sweep of one seeded expression set.

    The set is 1,242 genes x 64 conditions with the brain modules
    planted (``sqrt(rho) * profile + sqrt(1 - rho) * noise`` per member,
    the modules' profiles orthogonal),
    ranked per gene and correlated; cutoff ``i`` keeps the pairs whose
    |rho| is among the top ``SWEEP_DENSITIES[i]`` share.
    """
    n = SWEEP_GENES
    rho = _spearman_abs_upper(seed)
    order = np.argsort(-rho, kind="stable")
    iu, ju = np.triu_indices(n, k=1)
    graphs = []
    for density in SWEEP_DENSITIES:
        keep = order[: int(round(density * rho.size))]
        graphs.append(_canonical(n, iu[keep] * n + ju[keep]))
    return graphs


def warmup_graph(seed: int) -> tuple[int, np.ndarray]:
    """A small planted graph for a warm-up job: one 10-clique and one
    6-clique over sparse background on 200 vertices.  It shares no file
    and no fingerprint with a sweep cutoff, so the service's warm-up
    cannot pre-fill the cache the cold sweep must miss."""
    n = 200
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    iu, ju = np.triu_indices(n, k=1)
    codes = [
        (iu * n + ju)[rng.random(iu.size) < 0.02],
        _clique_codes(n, perm[:10]),
        _clique_codes(n, perm[10:16]),
    ]
    return _canonical(n, np.concatenate(codes))


def graph_digest(n: int, edges: np.ndarray) -> str:
    """Content digest of a generated graph (pins generator output)."""
    h = hashlib.sha256(f"graph:{n}:".encode())
    h.update(np.ascontiguousarray(edges, dtype="<i8").tobytes())
    return h.hexdigest()


def write_graph(n: int, edges: np.ndarray, path: Path) -> None:
    """Write the repo's JSON graph format, atomically."""
    payload = {"n": int(n), "edges": edges.tolist()}
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload, separators=(",", ":")))
    tmp.replace(path)
