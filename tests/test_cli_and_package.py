"""Tests for the CLI entry point and the top-level package surface."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest's own TOML dependency
    import tomli as tomllib

import repro
from repro.cli import build_parser, main
from repro.sim.results import ExperimentResult


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_pyproject_hands_setuptools_the_package_version(self):
        """The distribution version is ``repro.__version__`` (the cache key's)."""
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        metadata = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        project = metadata["project"]
        if "version" in project:
            version = project["version"]
        else:
            assert "version" in project.get("dynamic", [])
            attr = metadata["tool"]["setuptools"]["dynamic"]["version"]["attr"]
            module, _, name = attr.rpartition(".")
            version = getattr(importlib.import_module(module), name)
        assert version == repro.__version__

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_docstring_example(self):
        chain = repro.paper_synthetic_models(10)["non-skewed"]
        game = repro.PrivacyGame(
            chain, repro.get_strategy("OO"), repro.MaximumLikelihoodDetector()
        )
        episode = game.run_episode(np.random.default_rng(0), horizon=50)
        assert 0.0 <= episode.tracking_accuracy <= 1.0

    def test_available_strategies_and_experiments(self):
        assert "OO" in repro.available_strategies()
        assert "fig5" in repro.available_experiments()


class TestCLI:
    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig5" in output and "fig10" in output

    def test_run_fig4(self, capsys):
        assert main(["run", "fig4", "--runs", "5", "--horizon", "10"]) == 0
        output = capsys.readouterr().out
        assert "fig4" in output
        assert "kl/temporally-skewed" in output

    def test_run_with_output_file(self, tmp_path, capsys):
        destination = tmp_path / "fig4.json"
        assert (
            main(
                [
                    "run",
                    "fig4",
                    "--runs",
                    "5",
                    "--horizon",
                    "10",
                    "--output",
                    str(destination),
                ]
            )
            == 0
        )
        assert destination.exists()
        loaded = ExperimentResult.from_dict(json.loads(destination.read_text()))
        assert loaded.experiment_id == "fig4"

    def test_run_synthetic_with_small_budget(self, capsys):
        assert (
            main(["run", "ablation-chaff-budget", "--runs", "5", "--horizon", "15"]) == 0
        )
        output = capsys.readouterr().out
        assert "ablation-chaff-budget" in output

    def test_run_trace_experiment_scaled(self, capsys):
        assert (
            main(
                [
                    "run",
                    "fig8",
                    "--nodes",
                    "30",
                    "--towers",
                    "40",
                    "--horizon",
                    "30",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "fig8" in output

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])
