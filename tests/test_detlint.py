"""detlint: static rules, suppressions, scoping, CLI and corpus."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.detlint import (
    ALL_RULE_IDS,
    PARSE_ERROR_RULE,
    RULES,
    lint_paths,
    lint_source,
    rules_for_path,
)
from repro.detlint.findings import format_github, format_json, format_text
from repro.detlint.runner import main as detlint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "tests" / "detlint_corpus"
SRC_TREE = REPO_ROOT / "src" / "repro"

#: Virtual paths placing a snippet inside each rule's scope.
SIM_PATH = "src/repro/sim/snippet.py"
CORE_PATH = "src/repro/core/snippet.py"
NET_PATH = "src/repro/net/snippet.py"


def rule_ids(findings):
    return [f.rule for f in findings]


class TestDet001GlobalRng:
    def test_module_level_call(self):
        findings = lint_source("import random\nx = random.random()\n", SIM_PATH)
        assert rule_ids(findings) == ["DET001"]
        assert "process-global RNG" in findings[0].message

    def test_unseeded_random_instance(self):
        findings = lint_source("import random\nr = random.Random()\n", SIM_PATH)
        assert rule_ids(findings) == ["DET001"]

    def test_seeded_random_is_clean(self):
        assert lint_source("import random\nr = random.Random(7)\n", SIM_PATH) == []
        assert lint_source("import random\nr = random.Random(x=7)\n", SIM_PATH) == []

    def test_from_import_alias(self):
        source = "from random import Random, choice\na = Random()\nb = choice([1])\n"
        assert rule_ids(lint_source(source, SIM_PATH)) == ["DET001", "DET001"]

    def test_system_random_always_flagged(self):
        findings = lint_source("import random\nr = random.SystemRandom(1)\n", SIM_PATH)
        assert rule_ids(findings) == ["DET001"]

    def test_method_on_instance_is_clean(self):
        source = "def f(rng):\n    return rng.random()\n"
        assert lint_source(source, SIM_PATH) == []


class TestDet002UnorderedIteration:
    @pytest.mark.parametrize(
        "snippet",
        [
            "for x in set(items):\n    pass\n",
            "for x in frozenset(items):\n    pass\n",
            "for v in d.values():\n    pass\n",
            "ys = [x for x in {1, 2}]\n",
            "ys = {x for x in a.union(b)}\n",
            "for x in list(set(items)):\n    pass\n",
            "for i, x in enumerate(set(items)):\n    pass\n",
        ],
    )
    def test_flagged(self, snippet):
        assert rule_ids(lint_source(snippet, CORE_PATH)) == ["DET002"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "for x in sorted(set(items)):\n    pass\n",
            "for x in items:\n    pass\n",
            "for k in d:\n    pass\n",
            "for x in list(items):\n    pass\n",
            "n = len(set(items))\n",  # not an iteration
        ],
    )
    def test_clean(self, snippet):
        assert lint_source(snippet, CORE_PATH) == []


class TestDet003AmbientTime:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nt = time.time()\n",
            "import time\nt = time.perf_counter()\n",
            "from datetime import datetime\nt = datetime.now()\n",
            "import datetime\nt = datetime.datetime.utcnow()\n",
            "import os\nb = os.urandom(4)\n",
            "import uuid\nu = uuid.uuid4()\n",
            "from time import time\nt = time()\n",
        ],
    )
    def test_flagged(self, snippet):
        assert rule_ids(lint_source(snippet, SIM_PATH)) == ["DET003"]

    def test_engine_clock_is_clean(self):
        assert lint_source("def f(sim):\n    return sim.now\n", SIM_PATH) == []

    def test_sleep_is_clean(self):
        # Not a clock *read*; DET003 targets values entering the sim.
        assert lint_source("import time\ntime.sleep(0)\n", SIM_PATH) == []


class TestDet004FloatEquality:
    def test_float_literal(self):
        assert rule_ids(lint_source("ok = ratio == 0.5\n", CORE_PATH)) == ["DET004"]

    def test_state_attribute(self):
        source = "def f(c, now):\n    return c.start == now\n"
        assert rule_ids(lint_source(source, CORE_PATH)) == ["DET004"]

    def test_not_eq(self):
        source = "def f(q, now):\n    return q.expires_at != now\n"
        assert rule_ids(lint_source(source, CORE_PATH)) == ["DET004"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "ok = count == 3\n",
            "def f(c, now):\n    return c.start <= now\n",
            "def f(r):\n    return r.metadata_delivered_at is None\n",
            "ok = name == 'mbt'\n",
        ],
    )
    def test_clean(self, snippet):
        assert lint_source(snippet, CORE_PATH) == []


class TestDet005MutableDefaults:
    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(xs=[]):\n    pass\n",
            "def f(xs={}):\n    pass\n",
            "def f(xs=set()):\n    pass\n",
            "def f(*, xs=list()):\n    pass\n",
        ],
    )
    def test_mutable_default(self, snippet):
        assert rule_ids(lint_source(snippet, NET_PATH)) == ["DET005"]

    def test_non_literal_pop_default(self):
        source = "def f(d, k, fallback):\n    return d.pop(k, fallback)\n"
        assert rule_ids(lint_source(source, NET_PATH)) == ["DET005"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(xs=None):\n    pass\n",
            "def f(xs=()):\n    pass\n",
            "def f(d, k):\n    return d.pop(k, 0)\n",
            "def f(d, k):\n    return d.pop(k, -1)\n",
            "def f(d, k):\n    return d.pop(k)\n",
            "def f(xs):\n    return xs.pop(0)\n",  # list.pop, one arg
        ],
    )
    def test_clean(self, snippet):
        assert lint_source(snippet, NET_PATH) == []


class TestSuppressions:
    BAD = "import random\nx = random.random()  # detlint: ignore[DET001] why\n"

    def test_same_line_specific(self):
        assert lint_source(self.BAD, SIM_PATH) == []

    def test_bare_ignore(self):
        source = "ok = ratio == 0.5  # detlint: ignore\n"
        assert lint_source(source, CORE_PATH) == []

    def test_wrong_rule_does_not_suppress(self):
        source = "ok = ratio == 0.5  # detlint: ignore[DET001]\n"
        assert rule_ids(lint_source(source, CORE_PATH)) == ["DET004"]

    def test_standalone_comment_above(self):
        source = (
            "# detlint: ignore[DET002] -- insertion-ordered\n"
            "for v in d.values():\n    pass\n"
        )
        assert lint_source(source, CORE_PATH) == []

    def test_standalone_carries_over_comment_block(self):
        source = (
            "# detlint: ignore[DET002] -- justification that\n"
            "# spans several comment lines before the code.\n"
            "for v in d.values():\n    pass\n"
        )
        assert lint_source(source, CORE_PATH) == []

    def test_suppressions_can_be_disabled(self):
        findings = lint_source(self.BAD, SIM_PATH, suppressions=False)
        assert rule_ids(findings) == ["DET001"]


class TestScoping:
    def test_out_of_scope_path_is_clean(self):
        source = "import time\nt = time.time()\n"
        assert lint_source(source, "benchmarks/bench_runtime.py") == []
        assert lint_source(source, "src/repro/experiments/sweep.py") == []

    def test_all_rules_overrides_scope(self):
        source = "import time\nt = time.time()\n"
        findings = lint_source(source, "anywhere.py", all_rules=True)
        assert rule_ids(findings) == ["DET003"]

    def test_rules_for_path(self):
        assert "DET002" in rules_for_path("src/repro/core/node.py")
        assert "DET005" not in rules_for_path("src/repro/sim/engine.py")
        assert rules_for_path("examples/quickstart.py") == frozenset()
        assert rules_for_path("x.py", all_rules=True) == frozenset(RULES)

    def test_every_rule_has_scope_and_fixit(self):
        for rule in RULES.values():
            assert rule.scopes, rule.id
            assert rule.fixit, rule.id
            # Every scope fragment names a package or module that exists.
            for scope in rule.scopes:
                path = REPO_ROOT / "src" / scope
                assert path.is_dir() or path.with_suffix(".py").is_file(), (
                    rule.id,
                    scope,
                )
        assert ALL_RULE_IDS == (
            "CON001",
            "CON004",
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "DET005",
        )


class TestParseErrors:
    def test_syntax_error_is_a_finding(self):
        findings = lint_source("def broken(:\n", SIM_PATH)
        assert rule_ids(findings) == [PARSE_ERROR_RULE]


class TestFormats:
    FINDINGS = lint_source("import random\nx = random.random()\n", SIM_PATH)

    def test_text(self):
        text = format_text(self.FINDINGS)
        assert "DET001" in text and ":2:" in text and "fix:" in text

    def test_github(self):
        out = format_github(self.FINDINGS)
        assert out.startswith("::error file=")
        assert "title=DET001" in out and "line=2" in out

    def test_json_round_trip(self):
        payload = json.loads(format_json(self.FINDINGS))
        assert payload[0]["rule"] == "DET001"
        assert payload[0]["line"] == 2


class TestCorpus:
    """The fixture corpus: every bad file flags, every good file passes."""

    EXPECTED = {
        "repro/sim/bad_det001.py": ("DET001", 6),
        "repro/core/bad_det002.py": ("DET002", 6),
        "repro/sim/bad_det003.py": ("DET003", 6),
        "repro/core/bad_det004.py": ("DET004", 4),
        "repro/net/bad_det005.py": ("DET005", 5),
    }

    def test_expected_findings_per_file(self):
        for rel, (rule, count) in self.EXPECTED.items():
            path = CORPUS / rel
            findings = lint_source(path.read_text(), path.as_posix())
            assert rule_ids(findings) == [rule] * count, rel

    def test_good_files_are_clean(self):
        for rel in ("repro/core/good_clean.py", "unscoped/good_out_of_scope.py"):
            path = CORPUS / rel
            findings = lint_source(path.read_text(), path.as_posix())
            assert findings == [], rel

    def test_corpus_report(self):
        report = lint_paths([str(CORPUS)])
        counts = Counter(f.rule for f in report.findings)
        assert counts == Counter(
            {"DET001": 6, "DET002": 6, "DET003": 6, "DET004": 4, "DET005": 5}
        )
        assert report.exit_code == 1
        assert report.suppressions_matched >= 3  # good_clean.py + bad_det004.py


class TestExitCodes:
    def test_corpus_exits_nonzero(self, capsys):
        assert detlint_main([str(CORPUS)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys):
        assert detlint_main(["/no/such/path.py"]) == 2

    def test_list_rules(self, capsys):
        assert detlint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out

    def test_github_format(self, capsys):
        assert detlint_main([str(CORPUS), "--format", "github"]) == 1
        assert "::error file=" in capsys.readouterr().out


class TestLiveTree:
    def test_src_repro_is_clean(self):
        """The acceptance bar: the shipped tree honours its own linter."""
        report = lint_paths([str(SRC_TREE)])
        assert report.findings == [], format_text(report.findings)
        assert report.files_checked > 50


class TestCliIntegration:
    def test_repro_lint_subcommand(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", str(CORPUS)]) == 1
        assert "DET00" in capsys.readouterr().out
        assert cli_main(["lint", str(SRC_TREE)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            [str(CORPUS)],
            [str(CORPUS), "--format", "json"],
            [str(CORPUS / "contracts_project"), "--contracts", "--format", "json"],
            [str(CORPUS), "--no-scope", "--quiet", "--format", "github"],
            [str(SRC_TREE), "--contracts"],
            ["--list-rules"],
            ["/no/such/path.py"],
        ],
    )
    def test_same_flags_as_standalone_linter(self, capsys, argv):
        from repro.cli import main as cli_main

        code = cli_main(["lint", *argv])
        out = capsys.readouterr().out
        assert detlint_main(argv, prog="python -m repro.detlint") == code
        assert capsys.readouterr().out == out
