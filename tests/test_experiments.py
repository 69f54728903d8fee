"""Tests for the experiment harness (runner, records, tables, figures)."""

import threading

import numpy as np
import pytest

from repro.eval import BACKENDS
from repro.experiments import (
    CIRCUIT_LABELS,
    ExperimentSettings,
    METHOD_LABELS,
    RunRecord,
    Table,
    aggregate,
    clear_run_cache,
    figure5_learning_curves,
    max_learning_curve,
    mean_learning_curve,
    run_key_for,
    run_method,
    table1_fom_comparison,
    table2_two_tia,
)
from repro.experiments import runner as runner_module
from repro.experiments.__main__ import main as cli_main
from repro.experiments.figures import FigureData
from repro.experiments.tables import TABLE2_EMPHASIS, _metric_row
from repro.service import ServiceConfig
from repro.store import MemoryStore


def tiny_settings(**overrides):
    settings = ExperimentSettings()
    settings.steps = 6
    settings.seeds = 1
    settings.pretrain_steps = 6
    settings.transfer_steps = 5
    settings.transfer_warmup = 2
    settings.circuits = ["two_tia"]
    settings.methods = ["human", "random", "gcn_rl"]
    for key, value in overrides.items():
        setattr(settings, key, value)
    return settings


class TestSettings:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEPS", "123")
        assert ExperimentSettings().steps == 123

    def test_invalid_env_value_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEPS", "not_a_number")
        assert ExperimentSettings().steps == 80

    @pytest.mark.parametrize(
        "factory, attribute, variable, minimum",
        [
            (ExperimentSettings, "steps", "REPRO_STEPS", 1),
            (ExperimentSettings, "seeds", "REPRO_SEEDS", 1),
            (ExperimentSettings, "pretrain_steps", "REPRO_PRETRAIN_STEPS", 1),
            (ExperimentSettings, "transfer_steps", "REPRO_TRANSFER_STEPS", 1),
            (ExperimentSettings, "transfer_warmup", "REPRO_TRANSFER_WARMUP", 1),
            (ExperimentSettings, "eval_cache_size", "REPRO_EVAL_CACHE", 0),
            (ServiceConfig, "port", "REPRO_SERVE_PORT", 0),
            (ServiceConfig, "cache_size", "REPRO_SERVE_CACHE", 0),
            (ServiceConfig, "checkpoint_every", "REPRO_SERVE_CHECKPOINT_EVERY", 0),
            (ServiceConfig, "max_batch", "REPRO_SERVE_MAX_BATCH", 1),
            (ServiceConfig, "max_pending", "REPRO_SERVE_MAX_PENDING", 0),
            (ServiceConfig, "eval_attempts", "REPRO_SERVE_EVAL_ATTEMPTS", 1),
            (ServiceConfig, "chaos_seed", "REPRO_SERVE_CHAOS_SEED", 0),
            (ServiceConfig, "chaos_transient", "REPRO_SERVE_CHAOS_TRANSIENT", 0),
        ],
    )
    def test_integer_env_values_clamp_and_fall_back(
        self, factory, attribute, variable, minimum, monkeypatch
    ):
        monkeypatch.delenv(variable, raising=False)
        default = getattr(factory(), attribute)
        for value, expected in (("7", 7), ("-5", minimum), ("junk", default)):
            monkeypatch.setenv(variable, value)
            assert getattr(factory(), attribute) == expected, value

    @pytest.mark.parametrize("value", ["vectorised", "process"])
    def test_unknown_eval_backend_env_fails_loudly(self, value, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_EVAL_BACKEND", value)
        with pytest.raises(ValueError) as error:
            ExperimentSettings()
        assert "REPRO_EVAL_BACKEND" in str(error.value)
        assert str(BACKENDS) in str(error.value)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["ls"])
        assert exit_info.value.code == 2
        assert "REPRO_EVAL_BACKEND" in capsys.readouterr().err

    def test_rl_warmup_bounded(self):
        settings = ExperimentSettings()
        assert settings.rl_warmup(10) < 10
        assert settings.rl_warmup(10000) >= 5

    def test_labels_cover_all_defaults(self):
        settings = ExperimentSettings()
        assert set(settings.methods) <= set(METHOD_LABELS)
        assert set(settings.circuits) <= set(CIRCUIT_LABELS)


class TestRecords:
    def _records(self):
        return [
            RunRecord("random", "two_tia", "180nm", 0, 5, 1.0, rewards=[0.2, 1.0, 0.5]),
            RunRecord("random", "two_tia", "180nm", 1, 5, 2.0, rewards=[0.1, 2.0, 1.5]),
        ]

    def test_aggregate_mean_std(self):
        agg = aggregate(self._records())
        assert agg.mean == pytest.approx(1.5)
        assert agg.std == pytest.approx(0.5)
        assert "±" in str(agg)

    def test_aggregate_empty(self):
        agg = aggregate([])
        assert agg.count == 0

    def test_best_so_far_monotone(self):
        record = self._records()[0]
        curve = record.best_so_far()
        assert np.all(np.diff(curve) >= 0)

    def test_mean_and_max_learning_curves(self):
        records = self._records()
        mean_curve = mean_learning_curve(records)
        max_curve = max_learning_curve(records)
        assert len(mean_curve) == 3
        assert np.all(max_curve >= mean_curve - 1e-12)


class TestRunner:
    def test_human_method_single_evaluation(self):
        record = run_method("human", "two_tia", steps=10, use_cache=False)
        assert record.steps == 1
        assert record.best_metrics["gain"] > 0

    def test_random_method_runs_requested_steps(self):
        record = run_method("random", "two_tia", steps=4, seed=0, use_cache=False)
        assert len(record.rewards) == 4

    def test_rl_method_runs(self):
        settings = tiny_settings()
        record = run_method(
            "gcn_rl", "two_tia", steps=5, seed=0, settings=settings, use_cache=False
        )
        assert len(record.rewards) == 5
        assert np.isfinite(record.best_reward)

    def test_unknown_method_raises(self):
        with pytest.raises(KeyError):
            run_method("gradient_descent", "two_tia", use_cache=False)

    def test_run_cache_returns_same_object(self):
        clear_run_cache()
        first = run_method("random", "two_tia", steps=3, seed=7)
        second = run_method("random", "two_tia", steps=3, seed=7)
        assert first is second
        clear_run_cache()


class TestTablesAndFigures:
    def test_table_render_alignment(self):
        table = Table("T", ["row_a"], ["col"])
        table.set("row_a", "col", "1.0")
        text = table.render()
        assert "row_a" in text and "col" in text and "1.0" in text

    def test_table1_structure_with_tiny_budget(self):
        clear_run_cache()
        settings = tiny_settings()
        table = table1_fom_comparison(settings)
        assert table.row_labels == ["Human", "Random", "GCN-RL"]
        assert table.column_labels == ["Two-TIA"]
        assert table.get("Random", "Two-TIA") != ""
        clear_run_cache()

    def test_figure5_series_shapes(self):
        clear_run_cache()
        settings = tiny_settings(methods=["random", "gcn_rl"])
        figures = figure5_learning_curves(settings)
        figure = figures["two_tia"]
        assert set(figure.series) == {"Random", "GCN-RL"}
        for series in figure.series.values():
            assert len(series) == settings.steps
        clear_run_cache()

    def test_concurrent_tables_on_one_store_build_each_cell_once(self, monkeypatch):
        settings = tiny_settings(methods=["human", "random", "es"], seeds=2)
        store = MemoryStore()
        built = []
        real_build = runner_module.build_environment

        def counting_build(*args, **kwargs):
            built.append(args[:2])
            return real_build(*args, **kwargs)

        monkeypatch.setattr(runner_module, "build_environment", counting_build)
        tables, errors = [None, None], []

        def render(index):
            try:
                tables[index] = table1_fom_comparison(settings, store=store).render()
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        threads = [threading.Thread(target=render, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert errors == []
        # human x1 + random x2 + es x2: every cell ran exactly once.
        assert len(built) == 5 and len(store) == 5
        assert tables[0] == tables[1]

    def test_failing_cell_raises_naming_it_and_is_quarantined(self, monkeypatch):
        settings = tiny_settings(methods=["human", "random", "es"])
        store = MemoryStore()
        real_strategy = runner_module.build_strategy

        def exploding_es(method, *args, **kwargs):
            if method == "es":
                raise RuntimeError("optimizer exploded")
            return real_strategy(method, *args, **kwargs)

        monkeypatch.setattr(runner_module, "build_strategy", exploding_es)
        with pytest.raises(
            RuntimeError,
            match=r"quarantined=1; es two_tia 180nm seed=0: .*optimizer exploded.*'attempts': 3",
        ):
            table1_fom_comparison(settings, store=store)
        assert len(store) == 2  # human and random kept their records
        key = run_key_for("es", "two_tia", steps=settings.steps, seed=0, settings=settings)
        assert store.get(key) is None
        assert store.get_quarantine(key)["attempts"] == 3

    def test_table2_weighted_rows_come_from_override_cells(self):
        settings = tiny_settings(methods=["human"])
        store = MemoryStore()
        table = table2_two_tia(settings, store=store)
        assert table.row_labels == ["Human"] + list(TABLE2_EMPHASIS)
        weighted = {
            stored.key.overrides: stored
            for stored in store.items()
            if stored.key.method == "gcn_rl"
        }
        assert set(weighted) == {((m, 10.0),) for m in TABLE2_EMPHASIS.values()}
        for row, metric in TABLE2_EMPHASIS.items():
            stored = weighted[((metric, 10.0),)]
            assert stored.key.apply_spec is False
            expected = _metric_row("two_tia", stored.record.best_metrics)
            for name, value in expected.items():
                (label,) = [c for c in table.column_labels if c.startswith(f"{name} [")]
                assert table.get(row, label) == value
            assert table.get(row, "FoM") == "-"
        assert "GCN-RL-5" in table.render()

    def test_figure_csv_and_ascii_export(self):
        figure = FigureData("demo", "step", "fom")
        figure.add_series("A", np.array([0.0, 0.5, 1.0]))
        figure.add_series("B", np.array([0.1, 0.2, 0.3]))
        csv = figure.to_csv()
        assert csv.splitlines()[0] == "step,A,B"
        ascii_plot = figure.render_ascii(width=20, height=5)
        assert "legend" in ascii_plot

    def test_empty_figure_renders(self):
        figure = FigureData("empty", "x", "y")
        assert "no data" in figure.render_ascii()
        assert figure.to_csv().startswith("step")


class TestCLI:
    @pytest.mark.parametrize("target", ["table1", "ls"])
    def test_workers_outside_sweep_is_a_usage_error(self, target, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CIRCUITS", "two_tia")
        monkeypatch.setenv("REPRO_METHODS", "human")
        with pytest.raises(SystemExit) as exit_info:
            cli_main([target, "--workers", "2", "--steps", "2", "--seeds", "1"])
        assert exit_info.value.code == 2
        assert "--workers applies to sweep only" in capsys.readouterr().err

    def test_max_runs_with_workers_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CIRCUITS", "two_tia")
        monkeypatch.setenv("REPRO_METHODS", "human")
        store_dir = tmp_path / "store"
        with pytest.raises(SystemExit) as exit_info:
            cli_main([
                "sweep", "--workers", "2", "--max-runs", "1", "--steps", "2",
                "--seeds", "1", "--store-dir", str(store_dir),
            ])
        assert exit_info.value.code == 2
        assert "--max-runs cannot be combined with --workers" in capsys.readouterr().err
        assert not store_dir.exists()  # refused before any store or process

    def test_cli_table1_smoke(self, capsys, monkeypatch):
        clear_run_cache()
        monkeypatch.setenv("REPRO_STEPS", "4")
        monkeypatch.setenv("REPRO_SEEDS", "1")
        monkeypatch.setenv("REPRO_CIRCUITS", "two_tia")
        monkeypatch.setenv("REPRO_METHODS", "human,random")
        exit_code = cli_main(["table1", "--steps", "4", "--seeds", "1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Table I" in captured.out
        clear_run_cache()
