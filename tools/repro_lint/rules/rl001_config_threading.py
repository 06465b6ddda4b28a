"""RL001 — config-threading completeness.

A *policy field* on :class:`~repro.engine.config.EnumerationConfig` is
a field whose ``__post_init__`` validates membership against a
module-level vocabulary tuple (``self.level_store not in LEVEL_STORES``
— the pattern every policy follows).  Each such field must reach all
four layers the engine/service stack threads policies through:

1. ``EnumerationConfig.__hash__`` must include ``self.<field>`` (the
   config identity the service result cache keys on);
2. ``src/repro/cli.py`` must declare a ``--<field-with-dashes>`` flag;
3. ``src/repro/service/protocol.py`` must carry the field in
   ``_CONFIG_FIELDS`` (the wire payload);
4. ``Job.to_dict`` in ``src/repro/service/jobs.py`` must expose the
   field (listings/`repro jobs`).

Additionally, ``ResultCache.key`` in ``src/repro/service/cache.py``
must key on the *whole* config object — a projection of hand-picked
fields would silently conflate runs whenever a policy field is added.

A missing field declaration is reported at the layer that lacks it; a
missing layer file on a tree that *has* the config module is itself a
violation (fixture trees without ``src/repro/engine/config.py`` are
simply out of scope).
"""

from __future__ import annotations

import ast

from tools.repro_lint.core import (
    Project,
    Violation,
    find_class,
    find_function,
    module_constants,
    register_rule,
    self_attr,
)

CONFIG = "src/repro/engine/config.py"
CLI = "src/repro/cli.py"
PROTOCOL = "src/repro/service/protocol.py"
JOBS = "src/repro/service/jobs.py"
CACHE = "src/repro/service/cache.py"

LAYERS = (CLI, PROTOCOL, JOBS, CACHE)


def _policy_fields(
    cls: ast.ClassDef, constants: dict[str, tuple[str, ...]]
) -> dict[str, int]:
    """``{field: lineno}`` of vocabulary-validated policy fields."""
    post_init = find_function(cls.body, "__post_init__")
    if post_init is None:
        return {}
    fields: dict[str, int] = {}
    for node in ast.walk(post_init):
        if not isinstance(node, ast.Compare):
            continue
        attr = self_attr(node.left)
        if attr is None or len(node.ops) != 1:
            continue
        if not isinstance(node.ops[0], (ast.NotIn, ast.In)):
            continue
        comparator = node.comparators[0]
        if (
            isinstance(comparator, ast.Name)
            and comparator.id in constants
        ):
            fields.setdefault(attr, node.lineno)
    return fields


def _string_constants(tree: ast.AST) -> set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
    }


def _check_cache_keys_whole_config(
    project: Project, violations: list[Violation]
) -> None:
    src = project.source(CACHE)
    if src is None or src.tree is None:
        violations.append(
            Violation(
                "RL001",
                CACHE,
                0,
                "cache layer missing: the service result cache "
                "(ResultCache) keys config identity",
            )
        )
        return
    cls = find_class(src.tree, "ResultCache")
    key_fn = find_function(cls.body, "key") if cls is not None else None
    if cls is None or key_fn is None:
        violations.append(
            Violation(
                "RL001",
                CACHE,
                0,
                "ResultCache.key not found: the config-identity keying "
                "contract cannot be verified",
            )
        )
        return
    # the config parameter (staticmethod: no self) must flow whole into
    # the returned key, so EnumerationConfig.__hash__/__eq__ — which
    # RL001 checks cover every policy field — stay the single identity
    params = [a.arg for a in key_fn.args.args if a.arg != "self"]
    config_param = params[-1] if params else None
    returns_config = False
    for node in ast.walk(key_fn):
        if isinstance(node, ast.Return) and node.value is not None:
            # ``config.backend`` / ``config["x"]`` are projections, not
            # the whole object — only a bare Name use counts
            projected = set()
            for sub in ast.walk(node.value):
                if isinstance(sub, (ast.Attribute, ast.Subscript)):
                    projected.add(id(sub.value))
            for sub in ast.walk(node.value):
                if (
                    isinstance(sub, ast.Name)
                    and sub.id == config_param
                    and id(sub) not in projected
                ):
                    returns_config = True
    if not returns_config:
        violations.append(
            Violation(
                "RL001",
                CACHE,
                key_fn.lineno,
                "ResultCache.key must key on the whole config object "
                "(its __hash__/__eq__ carry every policy field); a "
                "field projection would conflate distinct runs",
            )
        )


@register_rule(
    "RL001",
    "config-threading completeness",
    "Every EnumerationConfig policy field must reach cache identity, "
    "the CLI, the wire protocol, and Job.to_dict.",
)
def check(project: Project) -> list[Violation]:
    src = project.source(CONFIG)
    if src is None or src.tree is None:
        return []  # no config module: out of scope (fixture tree)
    cls = find_class(src.tree, "EnumerationConfig")
    if cls is None:
        return []
    violations: list[Violation] = []
    constants = module_constants(src.tree)
    fields = _policy_fields(cls, constants)
    if not fields:
        violations.append(
            Violation(
                "RL001",
                CONFIG,
                cls.lineno,
                "no vocabulary-validated policy fields found on "
                "EnumerationConfig — the __post_init__ membership "
                "checks (`self.x not in XS`) are the pattern RL001 "
                "keys on",
            )
        )
        return violations

    # layer presence (a fixture tree missing the config module exited
    # above; from here on, a missing layer is a real break)
    missing_layer = set()
    for layer in LAYERS:
        layer_src = project.source(layer)
        if layer_src is None or layer_src.tree is None:
            missing_layer.add(layer)
            if layer != CACHE:  # cache reported by its own check below
                violations.append(
                    Violation(
                        "RL001",
                        layer,
                        0,
                        "config-threading layer missing or unparseable",
                    )
                )

    hash_fn = find_function(cls.body, "__hash__")
    hash_reads = (
        {
            self_attr(n)
            for n in ast.walk(hash_fn)
            if self_attr(n) is not None
        }
        if hash_fn is not None
        else set()
    )

    cli_src = project.source(CLI)
    cli_flags = (
        _string_constants(cli_src.tree)
        if CLI not in missing_layer
        else set()
    )
    proto_src = project.source(PROTOCOL)
    proto_fields: tuple[str, ...] = ()
    if PROTOCOL not in missing_layer:
        proto_fields = module_constants(proto_src.tree).get(
            "_CONFIG_FIELDS", ()
        )
    to_dict_keys: set[str] = set()
    jobs_src = project.source(JOBS)
    if JOBS not in missing_layer:
        job_cls = find_class(jobs_src.tree, "Job")
        to_dict = (
            find_function(job_cls.body, "to_dict")
            if job_cls is not None
            else None
        )
        if to_dict is not None:
            to_dict_keys = _string_constants(to_dict)

    for name, lineno in sorted(fields.items()):
        if hash_fn is None or name not in hash_reads:
            violations.append(
                Violation(
                    "RL001",
                    CONFIG,
                    hash_fn.lineno if hash_fn is not None else lineno,
                    f"policy field {name!r} missing from "
                    "EnumerationConfig.__hash__ — the service result "
                    "cache would conflate runs that differ only in it",
                )
            )
        flag = "--" + name.replace("_", "-")
        if CLI not in missing_layer and flag not in cli_flags:
            violations.append(
                Violation(
                    "RL001",
                    CLI,
                    0,
                    f"policy field {name!r} has no {flag} CLI flag",
                )
            )
        if PROTOCOL not in missing_layer and name not in proto_fields:
            violations.append(
                Violation(
                    "RL001",
                    PROTOCOL,
                    0,
                    f"policy field {name!r} missing from "
                    "_CONFIG_FIELDS — submit payloads would drop it "
                    "on the wire",
                )
            )
        if JOBS not in missing_layer and name not in to_dict_keys:
            violations.append(
                Violation(
                    "RL001",
                    JOBS,
                    0,
                    f"policy field {name!r} missing from Job.to_dict "
                    "— job listings could not show the policy",
                )
            )

    _check_cache_keys_whole_config(project, violations)
    return violations
