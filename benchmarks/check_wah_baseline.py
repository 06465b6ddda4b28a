"""Regression gate for the WAH level store (``--level-store wah``): the
compressed candidates and the compressed-domain step they run on.

The first committed benchmark baseline (ROADMAP: "publish regression
baselines in CI").  The script enumerates a tiny sparse Figure-9-style
workload — planted modules over sparse background noise, the regime the
paper's closing compression remark targets — across the backend matrix
and asserts the properties the compressed paths must keep forever:

* **equivalence** — every sequential backend (``incore``/``bitscan``)
  on the memory store and again on the WAH store, and ``incore`` on the
  disk store (the paper's out-of-core mode), emit the byte-identical
  maximal clique set;
* **compression** — the WAH store's peak per-level ``candidate_bytes``
  undercuts the in-memory store's peak by at least
  :data:`MIN_PEAK_REDUCTION`;
* **compressed-domain generation** — the WAH store streams every level
  to its step compressed: the raw-equivalent bytes it kept compressed
  (``decompressed_bytes_avoided``) are positive and drift-compared, so
  a level that stops reaching the step compressed moves them.

Enumeration is deterministic (seeded workload, canonical emission
order), so ``--check`` compares the measured numbers against the
committed baseline exactly — any drift is a real behaviour change, not
noise.  The only recorded-but-not-compared fields are the per-level
wall-clock timings (``level_seconds``), kept as data for the ROADMAP's
per-level timing baselines.

On any gate failure the per-store, per-level candidate-byte table is
printed so the failing level is visible without a re-run.

Usage::

    PYTHONPATH=src python benchmarks/check_wah_baseline.py \
        --check benchmarks/baselines/engines_wah.json
    PYTHONPATH=src python benchmarks/check_wah_baseline.py \
        --write benchmarks/baselines/engines_wah.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.core.generators import overlapping_cliques
from repro.engine import EnumerationConfig, EnumerationEngine

#: the workload is tiny (a CI run takes seconds) but genome-scale in
#: shape: a large sparse universe whose deep-level common-neighbor
#: strings are a handful of set bits in 2000.
WORKLOAD = {
    "n": 2000,
    "clique_sizes": [12, 11, 10, 10, 9, 9, 8, 8],
    "overlap": 4,
    "p": 0.0015,
    "seed": 20260730,
    "k_min": 3,
}

#: the memory win the compressed store must keep delivering.
MIN_PEAK_REDUCTION = 3.0

STORE_BACKENDS = ("incore", "bitscan")

#: metrics compared exactly against the committed baseline (timings are
#: recorded but never compared).
DRIFT_KEYS = (
    "workload",
    "n_cliques",
    "clique_sha256",
    "store_peak_candidate_bytes",
    "wah_peak_reduction",
    "decompressed_bytes_avoided",
    "kernel_word_ops",
)


def _clique_digest(cliques) -> str:
    payload = "\n".join(
        " ".join(map(str, c)) for c in sorted(cliques)
    ).encode()
    return hashlib.sha256(payload).hexdigest()


def _store_table(runs: dict) -> str:
    """The per-store, per-level candidate-byte table (failure context)."""
    series = {
        "memory": runs["incore"].level_stats,
        "disk": runs["incore+disk"].level_stats,
        "wah": runs["incore+wah"].level_stats,
    }
    depth = max(len(stats) for stats in series.values())
    lines = ["level-store candidate bytes per level:"]
    header = f"  {'k':>3}" + "".join(
        f"  {name:>12}" for name in series
    )
    lines.append(header)
    for i in range(depth):
        k = next(
            stats[i].k for stats in series.values() if i < len(stats)
        )
        row = f"  {k:>3}"
        for stats in series.values():
            cell = stats[i].candidate_bytes if i < len(stats) else "-"
            row += f"  {cell:>12}"
        lines.append(row)
    return "\n".join(lines)


def _fail(message: str, runs: dict | None = None) -> SystemExit:
    """A gate failure with the store byte table attached."""
    if runs is not None:
        print(_store_table(runs), file=sys.stderr)
    return SystemExit(message)


def measure() -> dict:
    """Run the matrix and collect the baseline metrics."""
    g, _ = overlapping_cliques(
        WORKLOAD["n"],
        WORKLOAD["clique_sizes"],
        WORKLOAD["overlap"],
        p=WORKLOAD["p"],
        seed=WORKLOAD["seed"],
    )
    engine = EnumerationEngine()
    k_min = WORKLOAD["k_min"]

    runs: dict[str, object] = {}
    for backend in STORE_BACKENDS:
        for store in ("memory", "wah"):
            label = backend if store == "memory" else f"{backend}+{store}"
            runs[label] = engine.run(
                g,
                EnumerationConfig(
                    backend=backend, k_min=k_min, level_store=store
                ),
            )
    runs["incore+disk"] = engine.run(
        g, EnumerationConfig(k_min=k_min, level_store="disk")
    )

    digests = {name: _clique_digest(r.cliques) for name, r in runs.items()}
    reference = digests["incore"]
    mismatched = sorted(
        name for name, d in digests.items() if d != reference
    )
    if mismatched:
        raise _fail(
            f"clique sets diverged from incore on: {', '.join(mismatched)}",
            runs,
        )

    peaks = {
        "memory": runs["incore"].peak_candidate_bytes(),
        # the disk store's candidate_bytes accounting is the
        # algorithmic footprint, directly comparable across stores
        "disk": runs["incore+disk"].peak_candidate_bytes(),
        "wah": runs["incore+wah"].peak_candidate_bytes(),
    }
    reduction = peaks["memory"] / max(1, peaks["wah"])
    if peaks["wah"] >= peaks["memory"]:
        raise _fail(
            f"wah peak {peaks['wah']} not below memory peak "
            f"{peaks['memory']}",
            runs,
        )
    if reduction < MIN_PEAK_REDUCTION:
        raise _fail(
            f"wah peak reduction {reduction:.2f}x below the required "
            f"{MIN_PEAK_REDUCTION}x",
            runs,
        )
    # compressed-domain generation gate: the telemetry sees the bytes
    # the wah store kept compressed end to end
    wah_avoided = runs["incore+wah"].domain_stats.get(
        "decompressed_bytes_avoided", 0
    )
    if wah_avoided <= 0:
        raise _fail(
            "compressed-domain generation reports no bytes kept "
            "compressed — the telemetry is broken",
            runs,
        )
    return {
        "workload": WORKLOAD,
        "backends_checked": sorted(runs),
        "n_cliques": len(runs["incore"].cliques),
        "clique_sha256": reference,
        "store_peak_candidate_bytes": peaks,
        "wah_peak_reduction": round(reduction, 2),
        "min_required_reduction": MIN_PEAK_REDUCTION,
        "decompressed_bytes_avoided": wah_avoided,
        "kernel_word_ops": runs["incore+wah"].domain_stats.get(
            "kernel_word_ops", 0
        ),
        # wall-clock per level (seed level first), recorded for the
        # ROADMAP's per-level timing baselines; never drift-compared
        "level_seconds": {
            label: [round(s, 5) for s in runs[label].level_seconds]
            for label in ("incore", "incore+wah")
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--write", metavar="PATH", help="measure and write the baseline"
    )
    group.add_argument(
        "--check", metavar="PATH",
        help="measure and compare against a committed baseline",
    )
    args = parser.parse_args(argv)

    metrics = measure()
    if args.write:
        path = Path(args.write)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(metrics, indent=2) + "\n")
        print(f"baseline written to {path}")
        print(json.dumps(metrics, indent=2))
        return 0

    path = Path(args.check)
    baseline = json.loads(path.read_text())
    drift = []
    for key in DRIFT_KEYS:
        if metrics[key] != baseline.get(key):
            drift.append(
                f"  {key}: baseline {baseline.get(key)!r} "
                f"!= measured {metrics[key]!r}"
            )
    if drift:
        print("baseline drift detected:", file=sys.stderr)
        print("\n".join(drift), file=sys.stderr)
        print(
            "(rerun with --write after verifying the change is "
            "intentional)",
            file=sys.stderr,
        )
        return 1
    print(
        f"wah baseline ok: {metrics['n_cliques']} cliques identical "
        f"across {len(metrics['backends_checked'])} runs; peak "
        f"candidate bytes {metrics['store_peak_candidate_bytes']['memory']}"
        f" (memory) -> {metrics['store_peak_candidate_bytes']['wah']} "
        f"(wah), {metrics['wah_peak_reduction']}x reduction; "
        f"{metrics['decompressed_bytes_avoided']} bytes kept compressed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
