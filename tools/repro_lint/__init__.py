"""repro-lint: AST-based enforcement of the repo's cross-cutting contracts.

Some invariants span several files and no test exercises them all:
the observability disabled path must stay allocation-free; shared
mutable state must stay behind its lock.  ``repro-lint`` checks both
mechanically from the ASTs, so they are verified at review time
instead of discovered in production.  Plumbing a rule would only keep
in step is written once instead: the config fields on their dataclass,
the level-store contract on its base class, and the metric series in
:data:`repro.obs.bridge.METRICS`.

Usage::

    python -m tools.repro_lint [--format json] [--select RL003,...]
    repro-lint            # console entry point (installed)

Rules live in :mod:`tools.repro_lint.rules`; each registers itself with
the registry in :mod:`tools.repro_lint.core`.  Suppress one finding
with a ``# repro-lint: disable=RL004`` comment on (or directly above)
the flagged line.  See ``docs/STATIC_ANALYSIS.md`` for the rule
catalogue and rationale.
"""

from tools.repro_lint.core import (
    Project,
    Rule,
    Violation,
    all_rules,
    get_rule,
    lint_project,
    register_rule,
)

__version__ = "1.0.0"

__all__ = [
    "Project",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_project",
    "register_rule",
    "__version__",
]
