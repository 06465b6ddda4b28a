"""The repro-lint core: sources, rule registry, suppressions.

A :class:`Project` wraps one repo checkout (or a test fixture tree that
mirrors its layout) and hands rules parsed ASTs on demand — each file is
read and parsed at most once per run.  A rule is a callable
``(project) -> list[Violation]`` registered under a stable ``RLnnn``
code via :func:`register_rule`; :func:`lint_project` runs a selection of
rules and filters the result through the per-line suppression comments.

Suppressions mirror the familiar linter convention::

    self._thread = start_thread()  # repro-lint: disable=RL004

A suppression comment on its own line applies to the next line, so a
flagged statement too long to share a line with a comment can still be
annotated.  ``disable=all`` suppresses every rule for that line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Violation",
    "Source",
    "Project",
    "Rule",
    "register_rule",
    "get_rule",
    "all_rules",
    "lint_project",
]

#: ``# repro-lint: disable=RL003,RL004`` (or ``disable=all``).
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,]+)"
)

#: a line that is *only* a suppression comment (applies to the next line).
_BARE_COMMENT_RE = re.compile(r"^\s*#")


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and what broke."""

    rule: str
    path: str  # project-relative, forward slashes
    line: int  # 1-based; 0 means "whole file / project"
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


class Source:
    """One parsed python (or text) file, cached by the project."""

    def __init__(self, root: Path, relpath: str, text: str):
        self.root = root
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()
        self._tree: ast.Module | None = None
        self._parse_error: SyntaxError | None = None

    @property
    def tree(self) -> ast.Module | None:
        """The parsed module, or ``None`` on a syntax error."""
        if self._tree is None and self._parse_error is None:
            try:
                self._tree = ast.parse(self.text, filename=self.relpath)
            except SyntaxError as exc:
                self._parse_error = exc
        return self._tree

    @property
    def parse_error(self) -> SyntaxError | None:
        self.tree  # noqa: B018 — force the parse attempt
        return self._parse_error

    def line_at(self, lineno: int) -> str:
        """The 1-based source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def suppressed_rules(self, lineno: int) -> set[str]:
        """Rule codes suppressed at ``lineno`` (own line or line above)."""
        codes: set[str] = set()
        for candidate in (lineno, lineno - 1):
            text = self.line_at(candidate)
            m = _SUPPRESS_RE.search(text)
            if m is None:
                continue
            # a trailing comment applies to its own line; a bare
            # comment line applies to the line *below* it only
            if candidate == lineno - 1 and not _BARE_COMMENT_RE.match(
                text
            ):
                continue
            codes.update(
                c.strip().upper() for c in m.group(1).split(",")
            )
        return codes


class Project:
    """One checkout (or fixture tree) the rules cross-reference.

    Rules address files by repo-relative path (``src/repro/engine/
    config.py``); a missing file returns ``None`` so each rule can
    decide whether absence is a violation (a layer deleted from a real
    tree) or simply out of scope (a minimal test fixture).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root).resolve()
        self._sources: dict[str, Source | None] = {}

    def source(self, relpath: str) -> Source | None:
        """The cached :class:`Source` at ``relpath``, or ``None``."""
        if relpath not in self._sources:
            path = self.root / relpath
            if path.is_file():
                self._sources[relpath] = Source(
                    self.root, relpath, path.read_text(encoding="utf-8")
                )
            else:
                self._sources[relpath] = None
        return self._sources[relpath]

    def python_sources(self, subdir: str = "src") -> list[Source]:
        """Every ``*.py`` under ``subdir`` (the whole tree when absent).

        Test fixtures mirror the repo layout under a tiny ``src/``, so
        rules that sweep the package tree behave identically on both.
        """
        base = self.root / subdir
        if not base.is_dir():
            base = self.root
        sources = []
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(self.root).as_posix()
            src = self.source(rel)
            if src is not None:
                sources.append(src)
        return sources


@dataclass(frozen=True)
class Rule:
    """One registered contract check."""

    code: str
    name: str
    description: str
    check: "callable" = field(repr=False)  # type: ignore[assignment]


_RULES: dict[str, Rule] = {}


def register_rule(code: str, name: str, description: str):
    """Decorator registering ``check(project) -> list[Violation]``."""

    def _register(fn):
        if code in _RULES:
            raise ValueError(f"rule {code} registered twice")
        _RULES[code] = Rule(
            code=code, name=name, description=description, check=fn
        )
        return fn

    return _register


def get_rule(code: str) -> Rule:
    _load_rules()
    try:
        return _RULES[code.upper()]
    except KeyError:
        raise ValueError(
            f"unknown rule {code!r}; known: {', '.join(sorted(_RULES))}"
        ) from None


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by code."""
    _load_rules()
    return [_RULES[c] for c in sorted(_RULES)]


def _load_rules() -> None:
    # rule modules self-register on import; imported lazily so `core`
    # stays importable from the rule modules themselves
    from tools.repro_lint import rules  # noqa: F401


def lint_project(
    root: str | Path, select: list[str] | None = None
) -> list[Violation]:
    """Run the selected rules (default: all) over one tree.

    Returns surviving violations sorted by (path, line, rule);
    suppression comments are applied here, so rules never need to know
    about them.
    """
    project = Project(root)
    rules = (
        all_rules()
        if not select
        else [get_rule(code) for code in select]
    )
    violations: list[Violation] = []
    for rule in rules:
        for v in rule.check(project):
            src = project.source(v.path)
            if src is not None and v.line:
                suppressed = src.suppressed_rules(v.line)
                if "ALL" in suppressed or v.rule in suppressed:
                    continue
            violations.append(v)
    return sorted(
        violations, key=lambda v: (v.path, v.line, v.rule, v.message)
    )


# -- shared AST helpers used by several rules --------------------------------


def attr_chain(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attr(node: ast.AST) -> str | None:
    """``x`` when ``node`` is exactly ``self.x``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None
