"""Command-line front end for repro-lint.

Exit codes: 0 clean, 1 violations found, 2 usage error (argparse).
Human output is one ``path:line: [RLnnn] message`` header per finding
followed by the offending source line, mirroring a unified-diff hunk
closely enough that editors and CI annotations pick the locations up.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tools.repro_lint.core import (
    Violation,
    all_rules,
    lint_project,
)


def _default_root() -> Path:
    """Walk up from cwd to the checkout root (pyproject.toml / .git)."""
    cwd = Path.cwd().resolve()
    for candidate in (cwd, *cwd.parents):
        if (candidate / "pyproject.toml").is_file() or (
            candidate / ".git"
        ).exists():
            return candidate
    return cwd


def _human(violations: list[Violation], root: Path) -> str:
    out: list[str] = []
    for v in violations:
        location = f"{v.path}:{v.line}" if v.line else v.path
        out.append(f"{location}: [{v.rule}] {v.message}")
        if v.line:
            source = root / v.path
            try:
                lines = source.read_text(
                    encoding="utf-8"
                ).splitlines()
            except OSError:
                lines = []
            if 1 <= v.line <= len(lines):
                out.append(f"    {lines[v.line - 1].strip()}")
    out.append("")
    noun = "violation" if len(violations) == 1 else "violations"
    out.append(f"{len(violations)} {noun}")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based enforcement of the repo's cross-cutting "
            "contracts (metric-name authority, obs purity, lock "
            "discipline, level-store single-pass)."
        ),
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=None,
        help="tree to lint (default: the enclosing checkout root)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}")
            print(f"       {rule.description}")
        return 0

    root = (
        Path(args.root).resolve()
        if args.root is not None
        else _default_root()
    )
    if not root.is_dir():
        parser.error(f"not a directory: {root}")
    select = (
        [
            c.strip().upper()
            for c in args.select.split(",")
            if c.strip()
        ]
        if args.select
        else None
    )
    try:
        violations = lint_project(root, select=select)
    except ValueError as exc:  # unknown rule code
        parser.error(str(exc))

    if args.format == "json":
        print(
            json.dumps(
                {
                    "root": str(root),
                    "rules": [
                        r.code
                        for r in all_rules()
                        if select is None or r.code in select
                    ],
                    "violations": [v.to_dict() for v in violations],
                    "ok": not violations,
                },
                indent=2,
            )
        )
    else:
        if violations:
            print(_human(violations, root))
        else:
            print("repro-lint: clean")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
