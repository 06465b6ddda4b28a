"""repro-lint: rule canaries, suppressions, CLI output, live tree.

Each rule gets a *good* fixture tree (no findings) and a *bad* one
proving the rule actually fires — without the canaries, a refactor
that silently broke a rule's AST pattern would make the linter pass
vacuously forever.
"""

from __future__ import annotations

import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.repro_lint import all_rules, lint_project  # noqa: E402
from tools.repro_lint.cli import main  # noqa: E402


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def dedent_tree(files: dict[str, str]) -> dict[str, str]:
    """Dedent fixture sources up front so tests can splice plain text."""
    return {rel: textwrap.dedent(text) for rel, text in files.items()}


def codes(violations) -> set[str]:
    return {v.rule for v in violations}


# -- RL003: obs disabled-path purity ------------------------------------------


class TestRL003:
    def test_ambient_access_inside_function_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/app.py": """\
                from repro.obs.runtime import get_observability

                def run():
                    obs = get_observability()
                    with obs.tracer.span("job"):
                        pass
                """
            },
        )
        assert lint_project(tmp_path, select=["RL003"]) == []

    def test_direct_registry_construction_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/app.py": """\
                from repro.obs.metrics import MetricsRegistry

                def run():
                    reg = MetricsRegistry()
                    return reg
                """
            },
        )
        violations = lint_project(tmp_path, select=["RL003"])
        assert codes(violations) == {"RL003"}
        assert "MetricsRegistry" in violations[0].message

    def test_module_level_span_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/app.py": """\
                from repro.obs.runtime import get_observability

                OBS = get_observability()
                """
            },
        )
        violations = lint_project(tmp_path, select=["RL003"])
        assert codes(violations) == {"RL003"}
        assert "module-level" in violations[0].message

    def test_obs_package_itself_exempt(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/obs/runtime.py": """\
                from repro.obs.metrics import MetricsRegistry

                def configure():
                    return MetricsRegistry()
                """
            },
        )
        assert lint_project(tmp_path, select=["RL003"]) == []


# -- RL004: lock discipline ---------------------------------------------------

GOOD_RL004 = dedent_tree({
    "src/box.py": """\
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []
                self._closed = False

            def add(self, item):
                with self._lock:
                    self._items.append(item)

            def close(self):
                with self._lock:
                    self._closed = True
                    self._items = []
        """
})


class TestRL004:
    def test_all_mutations_locked_is_clean(self, tmp_path):
        write_tree(tmp_path, GOOD_RL004)
        assert lint_project(tmp_path, select=["RL004"]) == []

    def test_bare_mutation_of_protected_attr_fires(self, tmp_path):
        files = dict(GOOD_RL004)
        # move the _items reset outside the lock; add() still mutates
        # _items under it, so the bare write is the race RL004 pins
        files["src/box.py"] = files["src/box.py"].replace(
            "def close(self):\n"
            "        with self._lock:\n"
            "            self._closed = True\n"
            "            self._items = []",
            "def close(self):\n"
            "        with self._lock:\n"
            "            self._closed = True\n"
            "        self._items = []",
        )
        write_tree(tmp_path, files)
        violations = lint_project(tmp_path, select=["RL004"])
        assert codes(violations) == {"RL004"}
        assert "'_items'" in violations[0].message
        assert "self._lock" in violations[0].message

    def test_init_and_locked_helpers_exempt(self, tmp_path):
        # __init__ already assigns _items bare; a *_locked helper (the
        # caller-holds-the-lock convention) may too — both sanctioned
        text = GOOD_RL004["src/box.py"].replace(
            "def close",
            "def _prune_locked(self):\n"
            "        self._items = []\n\n"
            "    def close",
        )
        write_tree(tmp_path, {"src/box.py": text})
        assert lint_project(tmp_path, select=["RL004"]) == []

    def test_container_mutator_outside_lock_fires(self, tmp_path):
        files = dict(GOOD_RL004)
        files["src/box.py"] += (
            "\n    def drain(self):\n"
            "        self._items.clear()\n"
        )
        write_tree(tmp_path, files)
        violations = lint_project(tmp_path, select=["RL004"])
        assert any("'_items'" in v.message for v in violations)

    def test_queue_put_not_a_mutation(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/sched.py": """\
                import threading

                class Sched:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._queue = __import__("queue").Queue()

                    def submit(self, job):
                        with self._lock:
                            self._queue.put(job)

                    def shutdown(self):
                        self._queue.put(None)
                """
            },
        )
        assert lint_project(tmp_path, select=["RL004"]) == []


STRICT_RL004 = dedent_tree({
    # the strict-read module set names this exact path: reads of
    # protected attrs must hold the lock here, not just mutations
    "src/repro/service/cache.py": """\
        import threading

        class ResultCache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {}
                self.hits = 0

            def get(self, key):
                with self._lock:
                    self.hits += 1
                    return self._entries.get(key)

            def put(self, key, value):
                with self._lock:
                    self._entries[key] = value

            def __len__(self):
                with self._lock:
                    return len(self._entries)

            def fold_into(self, out):
                with self._lock:
                    out["cache_hits"] = self.hits
        """
})


class TestRL004StrictReads:
    def test_all_reads_locked_is_clean(self, tmp_path):
        write_tree(tmp_path, STRICT_RL004)
        assert lint_project(tmp_path, select=["RL004"]) == []

    def test_unlocked_read_in_strict_module_fires(self, tmp_path):
        # the pre-fix ResultCache bug shape: fold_into snapshots a
        # lock-guarded tally without the lock (torn read)
        files = dict(STRICT_RL004)
        files["src/repro/service/cache.py"] = files[
            "src/repro/service/cache.py"
        ].replace(
            "def fold_into(self, out):\n"
            "        with self._lock:\n"
            "            out[\"cache_hits\"] = self.hits",
            "def fold_into(self, out):\n"
            "        out[\"cache_hits\"] = self.hits",
        )
        write_tree(tmp_path, files)
        violations = lint_project(tmp_path, select=["RL004"])
        assert codes(violations) == {"RL004"}
        assert any(
            "reads" in v.message and "'hits'" in v.message
            for v in violations
        )

    def test_unlocked_dunder_read_in_strict_module_fires(self, tmp_path):
        files = dict(STRICT_RL004)
        files["src/repro/service/cache.py"] = files[
            "src/repro/service/cache.py"
        ].replace(
            "def __len__(self):\n"
            "        with self._lock:\n"
            "            return len(self._entries)",
            "def __len__(self):\n"
            "        return len(self._entries)",
        )
        write_tree(tmp_path, files)
        violations = lint_project(tmp_path, select=["RL004"])
        assert any(
            "reads" in v.message and "'_entries'" in v.message
            for v in violations
        )

    def test_reads_unenforced_outside_strict_modules(self, tmp_path):
        # identical class in a non-strict module: unlocked reads stay
        # legal there (mutation discipline still applies)
        text = STRICT_RL004["src/repro/service/cache.py"].replace(
            "def fold_into(self, out):\n"
            "        with self._lock:\n"
            "            out[\"cache_hits\"] = self.hits",
            "def fold_into(self, out):\n"
            "        out[\"cache_hits\"] = self.hits",
        )
        write_tree(tmp_path, {"src/other.py": text})
        assert lint_project(tmp_path, select=["RL004"]) == []


# -- suppressions -------------------------------------------------------------


class TestSuppressions:
    BAD = """\
        from repro.obs.metrics import MetricsRegistry

        def run():
            reg = MetricsRegistry(){suffix}
            return reg
        """

    def test_trailing_disable_suppresses(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/app.py": self.BAD.format(
                    suffix="  # repro-lint: disable=RL003"
                )
            },
        )
        assert lint_project(tmp_path, select=["RL003"]) == []

    def test_line_above_disable_suppresses(self, tmp_path):
        text = textwrap.dedent(self.BAD.format(suffix="")).replace(
            "    reg = MetricsRegistry()",
            "    # repro-lint: disable=RL003\n"
            "    reg = MetricsRegistry()",
        )
        write_tree(tmp_path, {"src/app.py": text})
        assert lint_project(tmp_path, select=["RL003"]) == []

    def test_disable_all_suppresses(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/app.py": self.BAD.format(
                    suffix="  # repro-lint: disable=all"
                )
            },
        )
        assert lint_project(tmp_path, select=["RL003"]) == []

    def test_other_code_does_not_suppress(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/app.py": self.BAD.format(
                    suffix="  # repro-lint: disable=RL004"
                )
            },
        )
        violations = lint_project(tmp_path, select=["RL003"])
        assert codes(violations) == {"RL003"}

    def test_code_on_line_above_does_not_leak_down(self, tmp_path):
        # a *trailing* comment on the previous line must not suppress
        # the next line — only bare comment lines apply downward
        text = textwrap.dedent(self.BAD.format(suffix="")).replace(
            "    reg = MetricsRegistry()",
            "    x = 1  # repro-lint: disable=RL003\n"
            "    reg = MetricsRegistry()",
        )
        write_tree(tmp_path, {"src/app.py": text})
        violations = lint_project(tmp_path, select=["RL003"])
        assert codes(violations) == {"RL003"}


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_clean_tree_exit_zero(self, tmp_path, capsys):
        write_tree(tmp_path, GOOD_RL004)
        assert main([str(tmp_path)]) == 0
        assert "repro-lint: clean" in capsys.readouterr().out

    def test_violations_exit_one_human_format(self, tmp_path, capsys):
        files = dict(GOOD_RL004)
        files["src/box.py"] += (
            "\n    def drain(self):\n"
            "        self._items.clear()\n"
        )
        write_tree(tmp_path, files)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "src/box.py:" in out
        assert "[RL004]" in out
        assert "self._items.clear()" in out  # quoted source line
        assert "1 violation" in out

    def test_json_format(self, tmp_path, capsys):
        files = dict(GOOD_RL004)
        files["src/box.py"] += (
            "\n    def drain(self):\n"
            "        self._items.clear()\n"
        )
        write_tree(tmp_path, files)
        assert main(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["rules"] == [r.code for r in all_rules()]
        (violation,) = payload["violations"]
        assert violation["rule"] == "RL004"
        assert violation["path"] == "src/box.py"
        assert violation["line"] > 0

    def test_select_filters_rules(self, tmp_path, capsys):
        files = dict(GOOD_RL004)
        files["src/box.py"] += (
            "\n    def drain(self):\n"
            "        self._items.clear()\n"
        )
        write_tree(tmp_path, files)
        assert main(["--select", "rl003", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_unknown_rule_usage_error(self, tmp_path):
        write_tree(tmp_path, GOOD_RL004)
        with pytest.raises(SystemExit) as exc:
            main(["--select", "RL999", str(tmp_path)])
        assert exc.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL003", "RL004"):
            assert code in out


# -- the live tree ------------------------------------------------------------


class TestLiveTree:
    def test_rule_catalogue_is_complete(self):
        assert [r.code for r in all_rules()] == ["RL003", "RL004"]

    def test_repo_is_clean(self):
        violations = lint_project(REPO_ROOT)
        assert violations == [], "\n".join(
            f"{v.path}:{v.line} [{v.rule}] {v.message}"
            for v in violations
        )
