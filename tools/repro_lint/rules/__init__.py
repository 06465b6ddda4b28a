"""Rule modules; importing this package registers every rule."""

from tools.repro_lint.rules import (  # noqa: F401
    rl002_metric_names,
    rl003_obs_purity,
    rl004_lock_discipline,
)
