"""Wall-clock regression gate for the backend matrix.

Companion to ``check_wah_baseline.py`` (which gates output equality and
the compression ratio): this script gates *speed*.  It enumerates the
same committed sparse Figure-9-style workload on every execution
backend and level store, records the median wall-clock of ``REPEATS``
runs each, and
derives each backend's **ratio to the in-core median measured in the
same process on the same machine**.

The gate compares ratios, not seconds: a CI runner may be uniformly
faster or slower than the machine that wrote the baseline, but the
*relative* cost of ``incore+disk`` vs ``incore`` vs ``threads`` is a
property of the code.  A backend fails only when its measured ratio exceeds the
committed ratio by :data:`TOLERANCE` (generous at 2.5x, so scheduler
jitter never trips it — any trip is a real regression, which is what
makes this a non-flaky smoke gate).  Every run's clique digest is also
checked against ``incore``, so the speed gate doubles as an
equivalence smoke test.

Usage::

    PYTHONPATH=src python benchmarks/check_speed_baseline.py \
        --check benchmarks/baselines/engines_speed.json
    PYTHONPATH=src python benchmarks/check_speed_baseline.py \
        --write benchmarks/baselines/engines_speed.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check_wah_baseline import WORKLOAD  # noqa: E402 — shared workload

from repro.core.generators import overlapping_cliques  # noqa: E402
from repro.engine import EnumerationConfig, EnumerationEngine  # noqa: E402

#: measured-over-baseline ratio slack before the gate trips.
TOLERANCE = 2.5

#: median-of-N runs per backend (small N keeps CI cheap; the generous
#: tolerance absorbs the residual noise).
REPEATS = 3

#: levels whose *incore* median is below this are excluded from the
#: per-level ratio gate: a fraction of a millisecond is scheduler noise
#: on any host, and a ratio of two noise readings gates nothing.
LEVEL_NOISE_FLOOR_SECONDS = 0.002

#: the matrix: label -> config kwargs.  ``incore+disk`` is the paper's
#: out-of-core mode, ``incore+wah`` the compressed-domain step on the
#: WAH store.  ``threads`` runs at 2 workers, but every level of this
#: workload fits one pair-budget range, so its row times the range cut
#: and the inline step — the pool never starts here; the tier-1 thread
#: tests run it at a zero pair budget instead.
BACKENDS = {
    "incore": {"backend": "incore"},
    "bitscan": {"backend": "bitscan"},
    "incore+disk": {"backend": "incore", "level_store": "disk"},
    "incore+wah": {"backend": "incore", "level_store": "wah"},
    "threads": {"backend": "threads", "jobs": 2},
}


def _clique_digest(cliques) -> str:
    payload = "\n".join(
        " ".join(map(str, c)) for c in sorted(cliques)
    ).encode()
    return hashlib.sha256(payload).hexdigest()


def measure() -> dict:
    """Run the matrix; collect medians, ratios, and the digest check."""
    g, _ = overlapping_cliques(
        WORKLOAD["n"],
        WORKLOAD["clique_sizes"],
        WORKLOAD["overlap"],
        p=WORKLOAD["p"],
        seed=WORKLOAD["seed"],
    )
    engine = EnumerationEngine()
    k_min = WORKLOAD["k_min"]

    medians: dict[str, float] = {}
    level_medians: dict[str, list[float]] = {}
    digests: dict[str, str] = {}
    for label, kwargs in BACKENDS.items():
        config = EnumerationConfig(k_min=k_min, **kwargs)
        times = []
        level_times: list[list[float]] = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            result = engine.run(g, config)
            times.append(time.perf_counter() - t0)
            level_times.append(list(result.level_seconds))
        medians[label] = statistics.median(times)
        # element-wise median across the repeats — the per-level noise
        # one slow run injects must not survive into the gated figure
        level_medians[label] = [
            statistics.median(run[i] for run in level_times)
            for i in range(len(level_times[0]))
        ]
        digests[label] = _clique_digest(result.cliques)

    reference = digests["incore"]
    mismatched = sorted(
        label for label, d in digests.items() if d != reference
    )
    if mismatched:
        raise SystemExit(
            f"clique sets diverged from incore on: {', '.join(mismatched)}"
        )
    ratios = {
        label: round(median / medians["incore"], 3)
        for label, median in medians.items()
    }
    # per-level ratios to the incore level medians: machine-independent
    # like the totals, but localised — a regression confined to one
    # level moves its own ratio even when faster levels mask it in the
    # total.  Backends that do not report level timings are skipped;
    # levels under the noise floor gate nothing and are recorded as
    # null.
    incore_levels = level_medians["incore"]
    level_ratios: dict[str, list[float | None]] = {}
    for label, levels in level_medians.items():
        if len(levels) != len(incore_levels):
            continue
        level_ratios[label] = [
            round(mine / ref, 3)
            if ref >= LEVEL_NOISE_FLOOR_SECONDS
            else None
            for mine, ref in zip(levels, incore_levels)
        ]
    return {
        "workload": WORKLOAD,
        "repeats": REPEATS,
        "tolerance": TOLERANCE,
        "level_noise_floor_seconds": LEVEL_NOISE_FLOOR_SECONDS,
        "clique_sha256": reference,
        "median_seconds": {
            label: round(m, 4) for label, m in medians.items()
        },
        "ratio_to_incore": ratios,
        "level_median_seconds": {
            label: [round(s, 5) for s in levels]
            for label, levels in level_medians.items()
        },
        "level_ratio_to_incore": level_ratios,
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
    failures = []
    if metrics["workload"] != baseline.get("workload"):
        failures.append(
            f"  workload drifted: baseline {baseline.get('workload')!r} "
            f"!= measured {metrics['workload']!r}"
        )
    if metrics["clique_sha256"] != baseline.get("clique_sha256"):
        failures.append(
            "  clique digest drifted: baseline "
            f"{baseline.get('clique_sha256')!r} != measured "
            f"{metrics['clique_sha256']!r}"
        )
    base_ratios = baseline.get("ratio_to_incore", {})
    for label, measured in metrics["ratio_to_incore"].items():
        base = base_ratios.get(label)
        if base is None:
            failures.append(
                f"  {label}: no committed ratio (rerun --write to add it)"
            )
            continue
        allowed = base * TOLERANCE
        if measured > allowed:
            failures.append(
                f"  {label}: ratio-to-incore {measured} exceeds "
                f"{base} x {TOLERANCE} = {allowed:.3f} "
                f"(median {metrics['median_seconds'][label]}s)"
            )
    base_levels = baseline.get("level_ratio_to_incore", {})
    for label, measured_levels in metrics[
        "level_ratio_to_incore"
    ].items():
        committed = base_levels.get(label)
        if committed is None:
            failures.append(
                f"  {label}: no committed per-level ratios "
                "(rerun --write to add them)"
            )
            continue
        if len(committed) != len(measured_levels):
            failures.append(
                f"  {label}: level count drifted from "
                f"{len(committed)} to {len(measured_levels)}"
            )
            continue
        for level, (measured, base) in enumerate(
            zip(measured_levels, committed)
        ):
            # either side under the noise floor (null) gates nothing:
            # the floor is evaluated on the measuring machine, so a
            # level can cross it between hosts without regressing
            if measured is None or base is None:
                continue
            allowed = base * TOLERANCE
            if measured > allowed:
                failures.append(
                    f"  {label} level[{level}]: per-level ratio "
                    f"{measured} exceeds {base} x {TOLERANCE} = "
                    f"{allowed:.3f}"
                )
    if failures:
        print("speed baseline violations:", file=sys.stderr)
        print("\n".join(failures), file=sys.stderr)
        print(
            "(rerun with --write after verifying the slowdown is "
            "intentional)",
            file=sys.stderr,
        )
        return 1
    shown = ", ".join(
        f"{label} {metrics['median_seconds'][label]}s "
        f"(x{metrics['ratio_to_incore'][label]})"
        for label in metrics["median_seconds"]
    )
    print(f"speed baseline ok: {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
