"""Tests for the ``repro-lint`` determinism-contract linter.

Each RPL rule gets a fixture trio (positive / negative / disable-comment)
stored under ``tests/fixtures/repro_lint`` as ``.pytmpl`` files so the
linter's own file discovery never picks them up.  The suite also checks
rule scoping (which paths each rule applies to), the disable-directive
parser, the RPL006 registry contract, the CLI, and — the point of the
whole exercise — that the repository itself is violation-free.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.lint import (
    DisableDirectives,
    Finding,
    check_config_contracts,
    iter_python_files,
    lint_paths,
    lint_source,
    rule_codes,
)
from repro.devtools.lint.cli import main
from repro.devtools.lint.contract import _check_one

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "repro_lint"

#: Synthetic in-package paths chosen so each fixture lands in its rule's scope.
_SCOPED_PATH = {
    "RPL001": "tests/test_fixture.py",  # applies everywhere
    "RPL002": "src/repro/analysis/information.py",
    "RPL003": "src/repro/analysis/loglik.py",
    "RPL004": "src/repro/mobility/sparse.py",
    "RPL005": "src/repro/sim/runner.py",
    "RPL007": "src/repro/mec/fleet.py",
    "RPL008": "src/repro/mec/streaming.py",
}


def fixture(name: str) -> str:
    return (FIXTURES / f"{name}.pytmpl").read_text(encoding="utf-8")


def lint_fixture(name: str, path: str | None = None) -> list[Finding]:
    code = name.split("_")[0].upper()
    return lint_source(fixture(name), path or _SCOPED_PATH[code])


class TestRuleFixtures:
    """Positive / negative / disabled fixture per rule."""

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("rpl001_bad", 4),  # seed(), RandomState(), two arithmetic seeds
            ("rpl002_bad", 2),  # np.log, np.log2
            ("rpl003_bad", 2),  # .transition_matrix, ._log_transition
            ("rpl004_bad", 1),  # unguarded .toarray()
            ("rpl005_bad", 3),  # time.time, datetime.now, bare default_rng()
            ("rpl007_bad", 2),  # np.empty 3-tuple, np.zeros shape= 3-tuple
            ("rpl008_bad", 3),  # Recorder(), time.perf_counter ref, bare ref
        ],
    )
    def test_positive_fixtures_are_flagged(self, name, expected):
        findings = lint_fixture(name)
        code = name.split("_")[0].upper()
        assert [f.code for f in findings] == [code] * expected

    @pytest.mark.parametrize(
        "name",
        [
            "rpl001_good",
            "rpl002_good",
            "rpl003_good",
            "rpl004_good",
            "rpl005_good",
            "rpl007_good",
            "rpl008_good",
        ],
    )
    def test_negative_fixtures_are_clean(self, name):
        assert lint_fixture(name) == []

    @pytest.mark.parametrize(
        "name",
        [
            "rpl001_disabled",
            "rpl002_disabled",
            "rpl003_disabled",
            "rpl004_disabled",
            "rpl005_disabled",
            "rpl007_disabled",
            "rpl008_disabled",
        ],
    )
    def test_disable_comments_suppress(self, name):
        assert lint_fixture(name) == []

    def test_findings_carry_location_and_fixit(self):
        findings = lint_fixture("rpl001_bad")
        first = findings[0]
        assert first.line > 1 and first.col >= 1
        assert "repro.sim.seeding" in first.message
        formatted = first.format()
        assert formatted.startswith(f"{first.path}:{first.line}:{first.col}: RPL001")


class TestRuleScoping:
    """Rules fire only inside the package layers they guard."""

    def test_rpl001_applies_outside_the_package_too(self):
        assert lint_fixture("rpl001_bad", path="benchmarks/test_bench_x.py")

    @pytest.mark.parametrize(
        "name, out_of_scope_path",
        [
            ("rpl002_bad", "tests/test_analysis.py"),  # only inside repro/
            ("rpl002_bad", "src/repro/numerics.py"),  # the helpers themselves
            ("rpl003_bad", "src/repro/mobility/markov.py"),  # backend home
            ("rpl003_bad", "tests/test_markov.py"),  # only inside repro/
            ("rpl004_bad", "benchmarks/conftest.py"),  # only inside repro/
            ("rpl005_bad", "src/repro/analysis/information.py"),  # pure layers only
            ("rpl005_bad", "examples/demo.py"),
            ("rpl007_bad", "src/repro/analysis/planes.py"),  # plane layers only
            ("rpl007_bad", "tests/test_fleet.py"),  # only inside repro/
            ("rpl007_bad", "benchmarks/test_bench_fleet.py"),
            ("rpl008_bad", "src/repro/telemetry/recorder.py"),  # clock's home
            ("rpl008_bad", "src/repro/cli.py"),  # the composition root
            ("rpl008_bad", "examples/demo.py"),
        ],
    )
    def test_out_of_scope_paths_are_clean(self, name, out_of_scope_path):
        assert lint_source(fixture(name), out_of_scope_path) == []

    @pytest.mark.parametrize(
        "attr", ["_cumulative_transition", "_sampling_cache", "_stack_cumulative"]
    )
    def test_rpl003_guards_the_sampling_tables(self, attr):
        source = f"def f(chain):\n    return chain.{attr}\n"
        findings = lint_source(source, "src/repro/mec/fleet.py")
        assert [f.code for f in findings] == ["RPL003"]
        assert "evolve_from_uniforms" in findings[0].message
        assert lint_source(source, "src/repro/mobility/sparse.py") == []

    @pytest.mark.parametrize("layer", ["sim", "mec", "adversary", "world"])
    def test_rpl005_covers_every_pure_layer(self, layer):
        findings = lint_source(fixture("rpl005_bad"), f"src/repro/{layer}/module.py")
        assert {f.code for f in findings} == {"RPL005"}

    @pytest.mark.parametrize("layer", ["sim", "mec", "adversary", "world"])
    def test_rpl008_covers_every_pure_layer(self, layer):
        findings = lint_source(fixture("rpl008_bad"), f"src/repro/{layer}/module.py")
        assert {f.code for f in findings} == {"RPL008"}

    @pytest.mark.parametrize("layer", ["mec", "adversary", "world", "sim"])
    def test_rpl007_covers_every_plane_layer(self, layer):
        findings = lint_source(fixture("rpl007_bad"), f"src/repro/{layer}/module.py")
        assert {f.code for f in findings} == {"RPL007"}


class TestDisableDirectives:
    def test_line_scoped_codes(self):
        directives = DisableDirectives.parse(
            "x = 1\ny = np.log(p)  # repro-lint: disable=RPL002, rpl005\n"
        )
        hit = Finding(path="f.py", line=2, col=5, code="RPL002", message="m")
        miss_line = Finding(path="f.py", line=1, col=1, code="RPL002", message="m")
        miss_code = Finding(path="f.py", line=2, col=5, code="RPL001", message="m")
        assert directives.suppresses(hit)
        assert directives.suppresses(
            Finding(path="f.py", line=2, col=5, code="RPL005", message="m")
        )
        assert not directives.suppresses(miss_line)
        assert not directives.suppresses(miss_code)

    def test_disable_all_and_file_wide(self):
        directives = DisableDirectives.parse(
            "# repro-lint: disable-file=RPL003\nz = 2  # repro-lint: disable=all\n"
        )
        assert directives.suppresses(
            Finding(path="f.py", line=99, col=1, code="RPL003", message="m")
        )
        assert directives.suppresses(
            Finding(path="f.py", line=2, col=1, code="RPL001", message="m")
        )
        assert not directives.suppresses(
            Finding(path="f.py", line=3, col=1, code="RPL001", message="m")
        )

    def test_syntax_errors_become_rpl000(self):
        findings = lint_source("def broken(:\n", "src/repro/sim/x.py")
        assert [f.code for f in findings] == ["RPL000"]


class TestEngine:
    def test_select_and_ignore(self):
        source = fixture("rpl005_bad")
        path = _SCOPED_PATH["RPL005"]
        assert lint_source(source, path, select=["RPL001"]) == []
        assert lint_source(source, path, ignore=["rpl005"]) == []
        assert lint_source(source, path, select=["rpl005"])

    def test_iter_python_files_skips_caches(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "ok.cpython-312.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
        found = [p.name for p in iter_python_files([tmp_path])]
        assert found == ["ok.py"]

    def test_iter_python_files_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            list(iter_python_files(["/no/such/dir-for-repro-lint"]))

    def test_lint_paths_over_a_tree(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "sim" / "impure.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(fixture("rpl005_bad"), encoding="utf-8")
        findings = lint_paths([tmp_path])
        assert {f.code for f in findings} == {"RPL005"}
        assert all(f.path == str(bad) for f in findings)


class _GoodConfig:
    def __init__(self, n_runs: int = 3):
        self.n_runs = n_runs

    def to_dict(self):
        return {"n_runs": self.n_runs}

    @classmethod
    def from_dict(cls, payload):
        return cls(**payload)


class _LossyConfig(_GoodConfig):
    @classmethod
    def from_dict(cls, payload):
        return cls(n_runs=0)  # drops the round-tripped value


class _UnserialisableConfig(_GoodConfig):
    def to_dict(self):
        return {"n_runs": {1, 2, 3}}  # sets have no canonical JSON form


class _NoDefaultsConfig(_GoodConfig):
    def __init__(self, n_runs):
        super().__init__(n_runs)


class TestConfigContract:
    """RPL006: registered configs must round-trip the cache-key JSON."""

    def test_live_registry_is_clean(self):
        assert check_config_contracts() == []

    def test_good_config_passes(self):
        assert list(_check_one("unit", _GoodConfig)) == []

    @pytest.mark.parametrize(
        "cls, fragment",
        [
            (_LossyConfig, "changes the canonical form"),
            (_UnserialisableConfig, "not canonically JSON-serialisable"),
            (_NoDefaultsConfig, "not default-constructible"),
        ],
    )
    def test_broken_configs_are_flagged(self, cls, fragment):
        findings = list(_check_one("unit", cls))
        assert len(findings) == 1
        assert findings[0].code == "RPL006"
        assert fragment in findings[0].message

    def test_execution_only_fields_never_reach_cache_keys(self):
        # The probe in _check_one guards this invariant for every registered
        # config; exercise it concretely for the fleet config and the
        # streaming knobs it grew.
        from repro.sim.cache import EXECUTION_ONLY_KEYS, experiment_cache_key
        from repro.sim.config import FleetExperimentConfig

        assert {"stream", "chunk_slots"} <= set(EXECUTION_ONLY_KEYS)
        base = FleetExperimentConfig().to_dict()
        key = experiment_cache_key("fleet", base)
        assert key is not None
        for field in EXECUTION_ONLY_KEYS:
            probed = dict(base)
            probed[field] = "__probe__"
            assert experiment_cache_key("fleet", probed) == key, field
        streamed = FleetExperimentConfig(stream=True, chunk_slots=7).to_dict()
        assert experiment_cache_key("fleet", streamed) == key

    def test_registry_config_example_round_trips(self):
        # One concrete registered config, exercised the way the cache does.
        from repro.sim.cache import experiment_cache_key
        from repro.sim.config import SyntheticExperimentConfig

        config = SyntheticExperimentConfig()
        payload = json.loads(
            json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
        )
        again = SyntheticExperimentConfig.from_dict(payload)
        assert again.to_dict() == config.to_dict()
        assert experiment_cache_key("fig4", config.to_dict()) == experiment_cache_key(
            "fig4", again.to_dict()
        )


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main([str(tmp_path), "--no-contract"]) == 0
        assert "0 findings" in capsys.readouterr().err

    def test_violations_exit_one_and_print(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "mec" / "impure.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(fixture("rpl005_bad"), encoding="utf-8")
        assert main([str(tmp_path), "--no-contract"]) == 1
        captured = capsys.readouterr()
        assert "RPL005" in captured.out
        assert str(bad) in captured.out

    def test_select_filters_and_quiet_silences(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "mec" / "impure.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(fixture("rpl005_bad"), encoding="utf-8")
        code = main(
            [str(tmp_path), "--no-contract", "--select", "RPL001", "--quiet"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "" and captured.err == ""

    def test_unknown_code_is_a_usage_error(self, capsys):
        assert main(["--select", "RPL999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, capsys):
        assert main(["/no/such/dir-for-repro-lint", "--no-contract"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_list_rules_names_every_code(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in rule_codes():
            assert code in out

    def test_contract_check_runs_by_default(self, tmp_path, capsys):
        # An empty tree with the contract on: the live registry is clean,
        # so the run still exits 0 — but only after checking it.
        (tmp_path / "empty.py").write_text("x = 1\n", encoding="utf-8")
        assert main([str(tmp_path)]) == 0


class TestRepositoryIsClean:
    """The clean-sweep guarantee: the repo's own tree has zero findings."""

    @pytest.mark.parametrize("tree", ["src", "examples", "benchmarks"])
    def test_tree_is_violation_free(self, tree):
        findings = lint_paths([REPO_ROOT / tree])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_tests_are_violation_free(self):
        findings = lint_paths([REPO_ROOT / "tests"])
        assert findings == [], "\n".join(f.format() for f in findings)
