"""Expression-to-graph pipeline (the paper's Section 3 workload).

Chains the paper's three steps — normalization, pairwise rank correlation,
threshold filtering — into a gene co-expression :class:`~repro.core.graph.
Graph` whose maximal cliques are the "pure functional units" the Clique
Enumerator extracts.  :func:`coexpression_cliques` runs the full chain
through any :mod:`repro.engine` backend, so the same pipeline scales
from an in-memory run to disk-spilled or multithreaded enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.core.clique_enumerator import EnumerationResult
from repro.core.graph import Graph
from repro.engine import EnumerationConfig, run_enumeration
from repro.bio.correlation import pearson_correlation, spearman_correlation
from repro.bio.expression import ExpressionDataSet, zscore_normalize

__all__ = [
    "CoexpressionResult",
    "correlation_graph",
    "threshold_for_density",
    "coexpression_pipeline",
    "coexpression_cliques",
    "submit_coexpression_sweep",
]


def correlation_graph(
    corr: np.ndarray, threshold: float, absolute: bool = True
) -> Graph:
    """Threshold a correlation matrix into an unweighted graph.

    An edge joins genes ``i != j`` when ``|corr[i, j]| >= threshold``
    (signed comparison when ``absolute=False``).  The input must be a
    square symmetric matrix.
    """
    c = np.asarray(corr, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ParameterError(
            f"correlation matrix must be square, got {c.shape}"
        )
    if not np.allclose(c, c.T, atol=1e-10):
        raise ParameterError("correlation matrix must be symmetric")
    vals = np.abs(c) if absolute else c
    mask = vals >= threshold
    np.fill_diagonal(mask, False)
    g = Graph(c.shape[0])
    ui, vi = np.nonzero(np.triu(mask, k=1))
    for u, v in zip(ui.tolist(), vi.tolist()):
        g.add_edge(u, v)
    return g


def threshold_for_density(
    corr: np.ndarray, target_density: float, absolute: bool = True
) -> float:
    """Threshold giving (approximately) the requested edge density.

    The paper tunes thresholds to reach densities like 0.008%–0.3%; this
    helper inverts that choice: the returned value keeps the top
    ``target_density`` fraction of off-diagonal pairs.
    """
    if not 0.0 < target_density <= 1.0:
        raise ParameterError(
            f"target density must be in (0, 1], got {target_density}"
        )
    c = np.asarray(corr, dtype=np.float64)
    iu = np.triu_indices(c.shape[0], k=1)
    vals = np.abs(c[iu]) if absolute else c[iu]
    if vals.size == 0:
        return 1.0
    return float(np.quantile(vals, 1.0 - target_density))


@dataclass
class CoexpressionResult:
    """Pipeline output: the graph plus the matrices that produced it."""

    graph: Graph
    correlation: np.ndarray
    threshold: float
    method: str


def _correlation_matrix(
    dataset: ExpressionDataSet, method: str, normalize: bool
) -> np.ndarray:
    """The shared normalize → correlate front of pipeline and sweep."""
    if method not in ("spearman", "pearson"):
        raise ParameterError(
            f"method must be 'spearman' or 'pearson', got {method!r}"
        )
    matrix = dataset.matrix
    if normalize:
        matrix = zscore_normalize(matrix, axis=1)
    return (
        spearman_correlation(matrix)
        if method == "spearman"
        else pearson_correlation(matrix)
    )


def coexpression_pipeline(
    dataset: ExpressionDataSet,
    threshold: float | None = None,
    target_density: float | None = None,
    method: str = "spearman",
    normalize: bool = True,
) -> CoexpressionResult:
    """Run normalization → correlation → threshold → graph.

    Exactly one of ``threshold`` (absolute cutoff) and ``target_density``
    (inverted to a cutoff via :func:`threshold_for_density`) must be
    given.  ``method`` is ``"spearman"`` (the paper's rank coefficient) or
    ``"pearson"``.
    """
    if (threshold is None) == (target_density is None):
        raise ParameterError(
            "give exactly one of threshold / target_density"
        )
    corr = _correlation_matrix(dataset, method, normalize)
    if threshold is None:
        threshold = threshold_for_density(corr, target_density)
    graph = correlation_graph(corr, threshold)
    return CoexpressionResult(
        graph=graph, correlation=corr, threshold=threshold, method=method
    )


def coexpression_cliques(
    dataset: ExpressionDataSet,
    threshold: float | None = None,
    target_density: float | None = None,
    method: str = "spearman",
    normalize: bool = True,
    config: EnumerationConfig | None = None,
) -> tuple[CoexpressionResult, EnumerationResult]:
    """The full Section 3 workload: expression in, functional units out.

    Runs :func:`coexpression_pipeline`, then enumerates the graph's
    maximal cliques through the :mod:`repro.engine` backend named in
    ``config`` (default: ``"incore"`` from size 3 — the paper's gene
    modules are at least triangles).  Returns the pipeline result and
    the canonical enumeration result.
    """
    pipeline = coexpression_pipeline(
        dataset,
        threshold=threshold,
        target_density=target_density,
        method=method,
        normalize=normalize,
    )
    if config is None:
        config = EnumerationConfig(k_min=3)
    cliques = run_enumeration(pipeline.graph, config)
    return pipeline, cliques


def submit_coexpression_sweep(
    scheduler,
    dataset: ExpressionDataSet,
    thresholds: list[float],
    method: str = "spearman",
    normalize: bool = True,
    config: EnumerationConfig | None = None,
    sink: str = "count",
    priority: int = 0,
    use_cache: bool = True,
):
    """Submit a threshold sweep as a batch of enumeration jobs.

    The paper's biologists pick thresholds by *sweeping* them — the
    same expression matrix is thresholded at many cutoffs and each
    resulting graph is enumerated.  This helper amortizes the shared
    computation (normalization + the O(genes^2) correlation matrix are
    computed exactly once) and turns the per-threshold enumerations
    into queued :class:`~repro.service.jobs.Job`\\ s on a
    :class:`~repro.service.scheduler.JobScheduler`.  With
    ``sink="collect"`` each cutoff's result also lands in the
    scheduler's cache, so repeated cutoffs are served from it instead
    of re-enumerating; the default ``"count"`` sink streams without
    materializing cliques and therefore never populates the cache
    (it can still be *served* from a collect-warmed one).

    Returns the jobs in threshold order, labelled
    ``coexpression@<threshold>``; call ``job.wait()`` (or the
    scheduler's ``drain``) to collect them.

    One thresholded graph (an O(genes^2 / 8)-byte adjacency bitmap) is
    materialized per threshold at submission and stays referenced by
    its job record until pruning, so peak memory scales with the sweep
    length; for very long sweeps over very large gene sets, save each
    thresholded graph to disk and submit path-referenced specs instead
    (the scheduler memoizes loads).
    """
    from repro.service.jobs import JobSpec

    if not thresholds:
        raise ParameterError("sweep needs at least one threshold")
    if config is None:
        config = EnumerationConfig(k_min=3)
    corr = _correlation_matrix(dataset, method, normalize)
    specs = [
        JobSpec(
            graph=correlation_graph(corr, t),
            config=config,
            sink=sink,
            priority=priority,
            use_cache=use_cache,
            label=f"coexpression@{t:g}",
        )
        for t in thresholds
    ]
    return scheduler.submit_batch(specs)
