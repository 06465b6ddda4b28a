"""Input files and their independent oracle, built once per seed.

For each (family, seed) the generators of :mod:`perfbench.gen` write
the graph files the program receives, and networkx ``find_cliques`` —
an implementation that shares no code with the program — computes the
reference cliques once, filtered to the workload's ``[k_min, k_max]``.
Both are cached together under ``perfbench/.cache`` with a manifest, so
later runs on the same seed skip the generation.

An oracle is summarised by per-size counts and a digest of the sorted
clique list; :func:`check` compares a program result against it.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from pathlib import Path

from perfbench import gen

#: family -> (k_min, k_max) the family's workloads enumerate with
WINDOWS = {"genome": (1, None), "myogenic": (9, None), "sweep": (3, None)}


def summarize(cliques) -> dict:
    """Per-size counts and digest of a clique collection (any order)."""
    canon = sorted(tuple(sorted(c)) for c in cliques)
    h = hashlib.sha256()
    for c in canon:
        h.update(",".join(map(str, c)).encode())
        h.update(b"\n")
    sizes = Counter(len(c) for c in canon)
    return {
        "cliques": len(canon),
        "by_size": {str(k): sizes[k] for k in sorted(sizes)},
        "digest": h.hexdigest(),
    }


def check(observed: dict, expected: dict) -> list[str]:
    """Mismatches between two summaries; a summary without a digest
    (a count-only sink) is checked on its counts alone."""
    problems = []
    for key in ("cliques", "by_size", "digest"):
        if key in observed and observed[key] != expected[key]:
            problems.append(
                f"{key}: got {observed[key]!r}, expected {expected[key]!r}"
            )
    return problems


def reference(n: int, edges, k_min: int, k_max: int | None) -> dict:
    """The oracle: networkx maximal cliques within ``[k_min, k_max]``."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges.tolist())
    top = k_max if k_max is not None else n
    return summarize(
        c for c in nx.find_cliques(g) if k_min <= len(c) <= top
    )


def _graphs(family: str, seed: int):
    if family == "genome":
        return {"graph": gen.genome_sparse(seed),
                "warmup": gen.warmup_graph(seed)}
    if family == "myogenic":
        return {"graph": gen.myogenic(seed)}
    if family == "sweep":
        out = {"warmup": gen.warmup_graph(seed)}
        for i, g in enumerate(gen.expression_sweep(seed)):
            out[f"cutoff{i:02d}"] = g
        return out
    raise ValueError(f"unknown input family {family!r}")


def prepare(root: Path, family: str, seed: int, fingerprint) -> dict:
    """The manifest of ``family``'s inputs for ``seed``, building them
    (files, oracle) on first use.

    ``{"family", "seed", "graphs": {name: {"path", "n", "m", "digest",
    "fingerprint", "oracle"}}}``; paths are relative to ``root``.
    ``fingerprint(path)`` is the program's own content hash of the
    written file, pinned beside the generator's digest.
    """
    base = Path("perfbench") / ".cache" / f"v{gen.GENERATOR_VERSION}"
    directory = base / f"{family}-s{seed}"
    manifest_path = root / directory / "manifest.json"
    if manifest_path.exists():
        return json.loads(manifest_path.read_text())
    (root / directory).mkdir(parents=True, exist_ok=True)
    k_min, k_max = WINDOWS[family]
    graphs = {}
    for name, (n, edges) in _graphs(family, seed).items():
        rel = directory / f"{name}.json"
        gen.write_graph(n, edges, root / rel)
        graphs[name] = {
            "path": str(rel),
            "n": int(n),
            "m": int(len(edges)),
            "digest": gen.graph_digest(n, edges),
            "fingerprint": fingerprint(root / rel),
            "oracle": reference(n, edges, k_min, k_max),
        }
    manifest = {"family": family, "seed": seed, "k_min": k_min,
                "k_max": k_max, "graphs": graphs}
    tmp = manifest_path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(manifest, indent=1))
    tmp.replace(manifest_path)
    return manifest
