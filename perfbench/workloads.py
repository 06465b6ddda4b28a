"""The four benchmark workloads; why each exists is its ``why`` in
``BENCHMARK.json``.

All are closed loops from one client process with at most ``nproc``
(2) threads or connections.  Each names the input family
:mod:`perfbench.inputs` builds from the seed, the configuration the
program runs it with, and — for batch workloads — how many fresh worker
processes share one run: every process pays the set-up once, so the run
reports set-up time as a median over them, and a host whose speed
drifts between processes is averaged over several.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    #: "batch" (graph_io.load -> EnumerationEngine.run_with_sink, as
    #: `repro enumerate` does) or "service" (`repro serve` + client)
    kind: str
    #: input family in perfbench.inputs
    family: str
    #: EnumerationConfig keywords
    config: dict = field(default_factory=dict)
    #: fresh worker processes per run (batch workloads)
    processes: int = 1
    #: the input the warm-up job of a batch worker runs: the workload's
    #: own "graph", or the family's small "warmup" graph where one job
    #: is too long to pay for twice in a run
    warmup: str = "graph"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "genome-sparse", "batch", "genome",
            {"backend": "incore", "level_store": "wah", "k_min": 1},
            processes=2,
        ),
        Workload(
            "init-k-high", "batch", "myogenic",
            {"backend": "incore", "level_store": "memory", "k_min": 9},
            processes=3,
        ),
        Workload(
            "sweep-service", "service", "sweep",
            {"k_min": 3},
        ),
        Workload(
            "genome-threads", "batch", "genome",
            {"backend": "threads", "jobs": 2, "level_store": "wah",
             "k_min": 1},
            # one set-up per run, warmed up on the small graph: a job
            # takes 7-14 s, and a run must hold two of them
            processes=1, warmup="warmup",
        ),
    )
}

#: the service workload's server flags: two workers and the CI smoke's
#: memory budget, so admission control is on the measured path.
SERVE_ARGS = ("--workers", "2", "--memory-budget", "64M")

#: re-queries of the whole sweep after each cold sweep; 12 x 12 cutoffs
#: puts more than ten cache hits beyond the 90th percentile of a rep.
HIT_PASSES = 12
