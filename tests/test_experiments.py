"""Experiment-harness tests (repro.experiments) at smoke scale."""

import json

import numpy as np
import pytest

from repro.backends import backend_names
from repro.core.pruning import raw_to_real
from repro.experiments import (
    fig1_zero_fraction,
    fig9_speedup,
    fig10_breakdown,
    fig11_area,
    fig12_power,
    fig13_edp,
    table1_networks,
    table2_thresholds,
)
from repro.experiments.config import PaperConfig
from repro.experiments.context import (
    ExperimentContext,
    thresholds_key,
    timing_to_payload,
)
from repro.experiments.report import ExperimentResult, format_table, geometric_mean
from repro.experiments.runner import EXPERIMENTS, run_all
from repro.experiments.thresholds import (
    lossless_thresholds,
    quantile_thresholds,
    sweep_deltas,
    threshold_groups,
)
from repro.nn.inference import WeightStore


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    config = PaperConfig(
        scale="tiny",
        networks=["alex", "nin"],
        cache_dir=tmp_path_factory.mktemp("cache"),
        num_images=2,
    )
    return ExperimentContext(config)


def pruning_thresholds(ctx, name, delta=0.3):
    raw = quantile_thresholds(ctx, name, delta)
    return {k: raw_to_real(v) for k, v in raw.items() if v}


def timing_bytes(timing) -> str:
    """Cycles, lane events and counters of a timing, as exact JSON."""
    return json.dumps(timing_to_payload(timing), sort_keys=True)


class TestConfig:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            PaperConfig(scale="huge")

    def test_input_sizes(self):
        cfg = PaperConfig(scale="reduced")
        assert cfg.input_size("alex") == 115
        assert cfg.input_size("vgg19") == 112

    def test_cache_roundtrip(self, tmp_path):
        cfg = PaperConfig(scale="tiny", cache_dir=tmp_path)
        cfg.cache_store("calib", "x", {"a": 1.5})
        assert cfg.cache_load("calib", "x") == {"a": 1.5}
        assert cfg.cache_load("calib", "y") is None

    def test_cache_disabled(self, tmp_path):
        cfg = PaperConfig(scale="tiny", cache_dir=tmp_path, use_cache=False)
        cfg.cache_store("calib", "x", {"a": 1})
        assert cfg.cache_load("calib", "x") is None


class TestContext:
    def test_thresholds_key_normalizes(self):
        assert thresholds_key(None) == ()
        assert thresholds_key({"b": 1.0, "a": 2.0}) == (("a", 2.0), ("b", 1.0))
        assert thresholds_key({"a": 0.0}) == ()  # zero thresholds drop out

    def test_calibration_cached_on_disk(self, ctx):
        ctx.network_ctx("alex")
        path = ctx.artifacts.path("calib", network="alex")
        assert path.exists()

    def test_speedup_above_one(self, ctx):
        assert ctx.backend_speedup("cnv", "alex") > 1.0

    def test_baseline_timing_memoized(self, ctx):
        base = ctx.backend_timing("baseline", "alex")
        assert ctx.backend_timing("baseline", "alex") is base
        # One baseline timing per network, whatever config is asked for.
        pruned = ctx.backend_timing(
            "baseline", "alex", pruning_thresholds(ctx, "alex"), image_index=1
        )
        assert pruned is base

    def test_prediction_stability_of_unpruned_is_one(self, ctx):
        assert ctx.prediction_stability("alex", None) == 1.0


class TestSingleTimingPath:
    """Every timing comes from ``backend_timing`` and its one artifact kind."""

    def test_cold_then_warm_every_backend(self, tmp_path):
        config = PaperConfig(
            scale="tiny", networks=["alex"], cache_dir=tmp_path, num_images=1
        )
        cold = ExperimentContext(config)
        thresholds = pruning_thresholds(cold, "alex")
        configs = [
            (backend, t) for backend in backend_names() for t in (None, thresholds)
        ]
        expected = {
            (b, thresholds_key(t)): timing_bytes(cold.backend_timing(b, "alex", t))
            for b, t in configs
        }
        warm = ExperimentContext(config)
        for b, t in configs:
            got = timing_bytes(warm.backend_timing(b, "alex", t))
            assert got == expected[(b, thresholds_key(t))], b
        assert warm.artifacts.misses == 0
        # The baseline's pruned request is its unpruned timing: one object.
        assert warm.artifacts.hits == len(configs) - 1
        documents = [
            json.loads(path.read_text())
            for path in (tmp_path / "objects").rglob("*.json")
        ]
        kinds = {
            doc["kind"] for doc in documents
            if isinstance(doc["payload"], dict) and "layers" in doc["payload"]
        }
        assert kinds == {"backend_timing"}

    def test_timing_forwards_stop_at_the_last_conv_layer(self, ctx, tmp_path):
        """A store without any weight from the last conv layer on times
        every backend exactly like the full store."""
        full = ctx.network_ctx("alex")
        layers = full.network.layers
        last_conv = max(i for i, layer in enumerate(layers) if layer.kind == "conv")
        head = {layer.name for layer in layers[:last_conv]}
        store = WeightStore(
            weights={k: v for k, v in full.store.weights.items() if k in head},
            biases={k: v for k, v in full.store.biases.items() if k in head},
            shifts=dict(full.store.shifts),
        )
        config = PaperConfig(
            scale="tiny", networks=["alex"], cache_dir=tmp_path,
            num_images=ctx.config.num_images,
        )
        short = ExperimentContext(config, stores={"alex": store})
        # The weight-sparse simulators time the last conv from its filter
        # bank; only the forward must do without it.
        short.pruned_conv_weights = ctx.pruned_conv_weights
        thresholds = pruning_thresholds(ctx, "alex")
        for backend in backend_names():
            for t in (None, thresholds):
                assert timing_bytes(short.backend_timing(backend, "alex", t)) == (
                    timing_bytes(ctx.backend_timing(backend, "alex", t))
                ), (backend, t)


class TestThresholdDerivation:
    def test_quantile_thresholds_are_powers_of_two(self, ctx):
        raw = quantile_thresholds(ctx, "alex", 0.3)
        for value in raw.values():
            assert value == 0 or (value & (value - 1)) == 0

    def test_larger_delta_never_lowers_thresholds(self, ctx):
        small = quantile_thresholds(ctx, "alex", 0.1)
        large = quantile_thresholds(ctx, "alex", 0.5)
        assert all(large[k] >= small[k] for k in small)

    def test_sweep_speedup_monotone_with_delta(self, ctx):
        points = sweep_deltas(ctx, "alex", deltas=(0.1, 0.4))
        assert points[-1].speedup >= points[0].speedup - 1e-9

    def test_lossless_keeps_predictions(self, ctx):
        point = lossless_thresholds(ctx, "alex", deltas=(0.05, 0.2))
        assert point.stability == 1.0

    def test_google_groups_by_module(self, tmp_path):
        config = PaperConfig(
            scale="tiny", networks=["google"], cache_dir=tmp_path, num_images=1
        )
        gctx = ExperimentContext(config)
        groups = threshold_groups(gctx, "google")
        assert groups["inception_3a/1x1"] == "inception_3a"
        assert groups["inception_3a/5x5"] == "inception_3a"
        assert groups["conv1/7x7_s2"] == "conv1/7x7_s2"
        # 11 groups: conv1, conv2 reduce+3x3 (2), 9 modules, 2 aux convs.
        assert len(set(groups.values())) == 14


class TestExperimentModules:
    def test_fig1(self, ctx):
        result = fig1_zero_fraction.run(ctx)
        networks = [r["network"] for r in result.rows]
        assert networks == ["alex", "nin", "average"]
        for row in result.rows[:-1]:
            assert 0.2 < row["zero_fraction"] < 0.7

    def test_table1(self, ctx):
        result = table1_networks.run(ctx)
        assert all(r["conv_layers"] == r["paper"] for r in result.rows)

    def test_fig9(self, ctx):
        result = fig9_speedup.run(ctx, with_pruning=False)
        for row in result.rows:
            assert row["CNV"] > 1.0

    def test_fig10_accounting_identity(self, ctx):
        result = fig10_breakdown.run(ctx)
        by = {(r["network"], r["arch"]): r for r in result.rows}
        for name in ctx.config.networks:
            assert by[(name, "baseline")]["total"] == pytest.approx(1.0)
            assert by[(name, "cnv")]["total"] == pytest.approx(
                1.0 / ctx.backend_speedup("cnv", name), rel=1e-6
            )
            # CNV keeps baseline's other/conv1 event counts.
            assert by[(name, "cnv")]["conv1"] == pytest.approx(
                by[(name, "baseline")]["conv1"]
            )

    def test_fig11(self, ctx):
        result = fig11_area.run(ctx)
        total = [r for r in result.rows if r["component"] == "total"][0]
        assert total["delta"] == pytest.approx(0.0449, abs=0.001)

    def test_fig12(self, ctx):
        result = fig12_power.run(ctx)
        total = [r for r in result.rows if r["component"] == "total"][0]
        assert total["delta"] < 0.0  # CNV saves energy
        assert 0.5 < result.extra["energy_ratio"] < 1.0

    def test_fig13(self, ctx):
        result = fig13_edp.run(ctx)
        avg = result.rows[-1]
        assert avg["EDP_gain"] > 1.0
        assert avg["ED2P_gain"] > avg["EDP_gain"]

    def test_table2(self, ctx):
        result = table2_thresholds.run(ctx)
        for row in result.rows:
            assert row["speedup"] >= ctx.backend_speedup("cnv", row["network"]) - 1e-9


class TestReport:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 30, "b": 0.125}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "30" in lines[3]

    def test_empty_rows(self):
        assert format_table([]) == "(no rows)"

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_to_table_includes_notes(self):
        result = ExperimentResult(
            experiment="figX", title="T", rows=[{"a": 1}], notes="hello"
        )
        assert "hello" in result.to_table()


class TestRunner:
    def test_registry_covers_every_table_and_figure(self):
        assert set(EXPERIMENTS) == {
            "fig1", "table1", "fig9", "fig9_backends", "fig10", "fig11",
            "fig12", "fig13", "table2", "fig14",
        }

    def test_unknown_experiment_rejected(self, tmp_path):
        config = PaperConfig(scale="tiny", networks=["alex"], cache_dir=tmp_path)
        with pytest.raises(KeyError):
            run_all(config, only=["fig99"], verbose=False)

    def test_run_selected(self, tmp_path):
        config = PaperConfig(
            scale="tiny", networks=["alex"], cache_dir=tmp_path, num_images=1
        )
        results = run_all(config, only=["table1", "fig11"], verbose=False)
        assert [r.experiment for r in results] == ["table1", "fig11"]
