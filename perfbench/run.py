"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give the same figures as text (and, traced, the
per-layer self-time table).  The full record of the run — raw seconds,
every calibration-kernel time, the host context — is written to
``perfbench/out/<workload>-s<seed>-t<trace>.json``; a traced run also
writes its spans as Chrome trace-event JSON beside it, which Perfetto
(ui.perfetto.dev) opens directly.

Any result that differs from the oracle makes the run exit 1 after
printing its figures; a checkout without ``src/repro`` exits 2; a traced
run names any of its targets (:data:`perfbench.spans.TARGETS`) the
program no longer has — renamed or moved, so the layer it times would
read 0 — and exits 3 before running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if sys.path and Path(sys.path[0]).resolve() == ROOT / "perfbench":
    sys.path.pop(0)
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import batch, calib, host, inputs  # noqa: E402
from perfbench import launch_server, report, spans, sweep  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: a worker process that has not reported by then is stopped
WORKER_TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _fingerprint(path: Path) -> str:
    from repro.core import graph_io

    return graph_io.graph_fingerprint(graph_io.load(path))


def run_batch(workload, manifest, args, out_dir) -> list[dict]:
    graph = manifest["graphs"]["graph"]
    warmup = manifest["graphs"][workload.warmup]
    workers = []
    share = args.seconds / workload.processes
    for index in range(workload.processes):
        out = out_dir / f"worker{index}.json"
        spec = {
            "graph": graph["path"],
            "oracle": graph["oracle"],
            "warmup": warmup["path"],
            "warmup_oracle": warmup["oracle"],
            "config": workload.config,
            "seconds": share,
            "trace": args.trace,
            "phase": index,
            "tag": f"w{index}",
            "out": str(out),
            "launched_at": time.monotonic(),
        }
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.batch", json.dumps(spec)],
            cwd=ROOT, env=_env(),
        )
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RuntimeError(f"batch worker {index} exited {code}")
        workers.append(json.loads(out.read_text()))
    return workers


def run_service(manifest, args, out_dir) -> list[dict]:
    reps = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        t0 = time.monotonic()
        reps.append(sweep.run_rep(ROOT, manifest, len(reps), traced,
                                  out_dir, _env()))
        elapsed = time.monotonic() - start
        if len(reps) >= 2 and elapsed + (time.monotonic() - t0) > (
            args.seconds
        ):
            break
    return reps


def _overhead(traced: list[float], plain: list[float]) -> float:
    if not traced or not plain:
        return 0.0
    return statistics.median(traced) / statistics.median(plain) - 1


def traced_metrics(workload, records, scale, chrome_path):
    """Per-layer metrics, the layer table and the Chrome trace."""
    ledger = report.Ledger()
    events = []
    if workload.kind == "batch":
        for pid, worker in enumerate(records, start=1):
            ledger.add(worker, scale,
                       n_workers=workload.config.get("jobs") or 1)
            events += spans.chrome_events(
                *spans.load(worker), pid, f"worker {pid - 1}"
            )
        overhead = _overhead(
            report.batch_times(records, scale, traced=True),
            report.batch_times(records, scale, traced=False),
        )
        counts = report.batch_counts(records)
    else:
        for index, rep in enumerate(records):
            if not rep["traced"]:
                continue
            for side, pid in (("server", 2 * index + 1),
                              ("client", 2 * index + 2)):
                dump = rep[f"{side}_spans"]
                ledger.add(dump, scale)
                events += spans.chrome_events(
                    *spans.load(dump), pid, f"{side} rep {index}"
                )
        overhead = _overhead(
            report.hit_times(records, scale, traced=True),
            report.hit_times(records, scale, traced=False),
        )
        counts = report.service_counts(records, scale)
    chrome_path.write_text(json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}
    ))
    return report.per_layer(ledger, counts, overhead), ledger


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        missing = spans.unresolved(
            batch.MODULES if workload.kind == "batch"
            else launch_server.MODULES + sweep.CLIENT_MODULES
        )
        for target in missing:
            print(f"error: no instrumentation target {target}",
                  file=sys.stderr)
        if missing:
            return 3
    os.chdir(ROOT)
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    out_dir = ROOT / "perfbench" / "out" / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    context_before = host.context()

    manifest = inputs.prepare(ROOT, workload.family, args.seed,
                              _fingerprint)
    if workload.kind == "batch":
        records = run_batch(workload, manifest, args, out_dir)
        kernel = report.batch_kernel_seconds(records)
        scale = calib.to_reference(1.0, kernel)
        e2e = report.batch_end_to_end(records, scale)
        attempted = sum(len(w["jobs"]) + 1 for w in records)
    else:
        records = run_service(manifest, args, out_dir)
        kernel = report.service_kernel_seconds(records)
        scale = calib.to_reference(1.0, kernel)
        e2e = report.service_end_to_end(records, scale)
        attempted = sum(r["attempted"] for r in records)
    failures = [f for r in records for f in r["failures"]]

    table = []
    overcovered = 0
    if args.trace:
        chrome = ROOT / "perfbench" / "out" / f"{tag}.trace.json"
        values, ledger = traced_metrics(workload, records, scale, chrome)
        units = report.declared("per_layer")
        table = [f"{workload.name}: per-layer self time (reference wall "
                 f"seconds), Chrome trace {chrome.name}", *ledger.table()]
        print("\n".join(table))
        overcovered = ledger.overcovered
    else:
        values = e2e
        units = report.declared("end_to_end")
    metrics = {name: values[name] for name in units}
    for name, value in metrics.items():
        print(f"{name:<40} {value:.6g} {units[name]}")
    context_after = host.context()
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "kernel_s": kernel, "scale": scale,
        "host": {"before": context_before, "after": context_after,
                 "steal_share": host.steal_share(context_before,
                                                 context_after)},
        "inputs": {name: {k: v for k, v in g.items() if k != "oracle"}
                   for name, g in manifest["graphs"].items()},
        "end_to_end": e2e, "metrics": metrics, "layer_table": table,
        "job_cpu_s": report.percentiles(
            report.batch_times(records, scale) if workload.kind == "batch"
            else report.hit_times(records, scale)
        ),
        "failures": failures,
        "fail_ratio": len(failures) / attempted,
        "overcovered_spans": overcovered,
        "records": [
            {k: v for k, v in r.items()
             if k not in ("spans", "leaves", "adopters", "server_spans",
                          "client_spans")}
            for r in records
        ],
    }
    (ROOT / "perfbench" / "out" / f"{tag}.json").write_text(
        json.dumps(record, indent=1)
    )
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if overcovered:
        print(f"warning: {overcovered} spans count their children's time "
              f"twice; see the layer table", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
