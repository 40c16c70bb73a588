"""Contract registries + CON rule family: corpus, live tree, registries."""

from __future__ import annotations

import dataclasses
import inspect
import json
from collections import Counter
from pathlib import Path

from repro.contracts import (
    COUNTER_PREFIXES,
    COUNTER_REGISTRY,
    KNOB_REGISTRY,
    LAYERS,
    NAMESPACE_ROOTS,
    SEAM_REGISTRY,
    allowed_packages,
    check_counter_key,
    module_for_path,
)
from repro.detlint import lint_paths, lint_source
from repro.detlint.findings import format_json
from repro.detlint.runner import main as detlint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"
CON_CORPUS = REPO_ROOT / "tests" / "detlint_corpus" / "contracts_project"

CORE_PATH = "src/repro/core/snippet.py"

CON_RULE_IDS = ("CON001", "CON003", "CON004", "CON005")


def rule_ids(findings):
    return [f.rule for f in findings]


class TestPerFileRules:
    def test_unregistered_literal_fires_only_with_contracts(self):
        source = 'counters["perf.made_up"] = 1\n'
        assert lint_source(source, CORE_PATH) == []
        findings = lint_source(source, CORE_PATH, contracts=True)
        assert rule_ids(findings) == ["CON001"]
        assert "perf.made_up" in findings[0].message

    def test_registered_literal_is_clean(self):
        source = 'counters["faults.crashes"] += 1\n'
        assert lint_source(source, CORE_PATH, contracts=True) == []

    def test_recorder_call_resolves_namespace(self):
        source = "def f(perf):\n    perf.count('made_up')\n"
        findings = lint_source(source, CORE_PATH, contracts=True)
        assert rule_ids(findings) == ["CON001"]
        assert "perf.made_up" in findings[0].message

    def test_open_prefix_admits_minted_suffixes(self):
        source = 'counters["perf.time_us.contact_phase"] = 12\n'
        assert lint_source(source, CORE_PATH, contracts=True) == []

    def test_fstring_head_must_be_registered_prefix(self):
        source = 'k = f"perf.zzz_{name}"\n'
        findings = lint_source(source, CORE_PATH, contracts=True)
        assert rule_ids(findings) == ["CON001"]

    def test_layering_violation(self):
        source = "from repro.exec import run_many\n"
        findings = lint_source(source, CORE_PATH, contracts=True)
        assert rule_ids(findings) == ["CON004"]
        assert "repro.core" in findings[0].message

    def test_function_local_import_is_the_escape_hatch(self):
        source = "def f():\n    from repro.exec import run_many\n    return run_many\n"
        assert lint_source(source, CORE_PATH, contracts=True) == []

    def test_suppression_applies_to_con_rules(self):
        source = 'counters["perf.made_up"] = 1  # detlint: ignore[CON001] why\n'
        assert lint_source(source, CORE_PATH, contracts=True) == []


class TestCorpus:
    def test_every_con_rule_fires(self):
        report = lint_paths([str(CON_CORPUS)], contracts=True)
        counts = Counter(f.rule for f in report.findings)
        for rule in CON_RULE_IDS:
            assert counts[rule] >= 1, rule
        assert set(counts) == set(CON_RULE_IDS)
        assert report.exit_code == 1

    def test_default_run_is_silent(self):
        # The fixtures are DET-clean and CON rules need --contracts.
        report = lint_paths([str(CON_CORPUS)])
        assert report.findings == []
        assert report.exit_code == 0

    def test_fixture_suppression_matched(self):
        # bad_con001.py suppresses the CON001 on its alien prefix
        # literal, leaving only its three unsuppressed forms.
        report = lint_paths([str(CON_CORPUS)], contracts=True)
        assert report.suppressions_matched == 1
        bad = [f for f in report.findings if f.path.endswith("core/bad_con001.py")]
        assert rule_ids(bad) == ["CON001"] * 3
        assert not any("perf.alien." in f.message for f in bad)

    def test_json_format_carries_con_findings(self):
        report = lint_paths([str(CON_CORPUS)], contracts=True)
        payload = json.loads(format_json(report.findings))
        assert {f["rule"] for f in payload} == set(CON_RULE_IDS)
        assert all(f["line"] >= 1 and f["fixit"] for f in payload)


class TestLiveTree:
    def test_src_repro_is_contract_clean(self):
        """The acceptance bar: every contract holds on the shipped tree."""
        report = lint_paths([str(SRC_TREE)], contracts=True)
        assert report.findings == [], [str(f) for f in report.findings]

    def test_runner_flag(self, capsys):
        assert detlint_main([str(SRC_TREE), "--contracts"]) == 0
        assert detlint_main([str(CON_CORPUS), "--contracts"]) == 1
        assert "CON0" in capsys.readouterr().out

    def test_cli_lint_contracts(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", str(SRC_TREE), "--contracts"]) == 0
        assert cli_main(["lint", str(CON_CORPUS), "--contracts"]) == 1
        assert "CON0" in capsys.readouterr().out


class TestCounterRegistry:
    def test_every_key_under_a_namespace_root(self):
        for spec in COUNTER_REGISTRY:
            assert spec.key in NAMESPACE_ROOTS or spec.key.startswith(
                NAMESPACE_ROOTS
            ) or not spec.key.count("."), spec.key

    def test_excluded_exacts_covered_by_their_prefix(self):
        for spec in COUNTER_REGISTRY:
            if spec.fingerprint == "excluded" and not spec.is_prefix:
                assert any(
                    spec.key.startswith(p)
                    for p, ps in COUNTER_PREFIXES.items()
                    if ps.fingerprint == "excluded"
                ), spec.key

    def test_check_counter_key(self):
        assert check_counter_key("events") is None
        assert check_counter_key("faults.crashes") is None
        assert check_counter_key("perf.time_us.whatever") is None  # open
        assert check_counter_key("perf.catalog.whatever") is not None  # closed
        assert check_counter_key("perf.nope") is not None
        assert check_counter_key("faults.", prefix_only=True) is None
        assert check_counter_key("faults.xyz_", prefix_only=True) is not None


class TestKnobRegistry:
    def test_registry_matches_simulation_config(self):
        from repro.sim.runner import SimulationConfig

        fields = {f.name for f in dataclasses.fields(SimulationConfig)}
        assert fields == set(KNOB_REGISTRY)

    def test_every_knob_reaches_users(self):
        for name, spec in KNOB_REGISTRY.items():
            assert spec.flags or spec.api_only, name

    def test_flags_exist_in_cli(self):
        text = (SRC_TREE / "cli.py").read_text(encoding="utf-8")
        for name, spec in KNOB_REGISTRY.items():
            for flag in spec.flags:
                assert f'"{flag}"' in text, (name, flag)


class TestLayerRegistry:
    def test_module_for_path(self):
        assert module_for_path("src/repro/core/node.py") == "repro.core.node"
        assert module_for_path("src/repro/sim/__init__.py") == "repro.sim"

    def test_unknown_package_is_not_covered_by_facade(self):
        assert allowed_packages("repro.newpkg.thing") is None

    def test_core_may_not_import_exec(self):
        allowed = allowed_packages("repro.core.node")
        assert allowed is not None and "exec" not in allowed

    def test_every_entry_names_an_existing_module(self):
        def exists(dotted):
            path = SRC_TREE.parent.joinpath(*dotted.split("."))
            return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()

        for key, allowed in LAYERS.items():
            assert exists(key), key
            for short in allowed:
                assert exists(f"repro.{short}"), (key, short)


class TestSeamRegistryLive:
    def test_twin_and_reference_signatures_hold_at_runtime(self):
        for seam in SEAM_REGISTRY:
            left = self._resolve(seam.left)
            right = self._resolve(seam.right)
            lp = list(inspect.signature(left).parameters)
            rp = list(inspect.signature(right).parameters)
            assert lp[: len(rp)] == rp, seam.name  # ordered prefix

    @staticmethod
    def _resolve(ref):
        import importlib

        rel, qualname = ref
        module = importlib.import_module(
            "repro." + rel[: -len(".py")].replace("/", ".")
        )
        return getattr(module, qualname)
