"""Tests for the model zoo, computation graphs, and the calibrated cost model."""

from __future__ import annotations

import pytest

from repro.models import costs
from repro.models.costs import floor_pow2
from repro.models.operators import OpKind
from repro.models.transformer import build_transformer
from repro.models.zoo import BERT_21B, LLAMA2_7B, MODEL_ZOO, OPT_66B, WHISPER_9B, get_model
from repro.transfer.links import GB


class TestZoo:
    def test_all_four_paper_models_present(self):
        assert set(MODEL_ZOO) == {"OPT-66B", "LLAMA2-7B", "BERT-21B", "WHISPER-9B"}

    def test_get_model_unknown_raises_with_options(self):
        with pytest.raises(KeyError, match="available"):
            get_model("GPT-5")

    def test_opt_checkpoint_is_120_gb(self):
        assert OPT_66B.checkpoint_bytes == pytest.approx(120 * GB)

    def test_kv_bytes_per_token_formula(self):
        # 2 (K,V) x 2 bytes x hidden x layers
        assert OPT_66B.kv_bytes_per_token == 4 * 9216 * 64

    def test_whisper_is_encoder_decoder(self):
        assert WHISPER_9B.encoder_layers > 0
        assert WHISPER_9B.total_layers == WHISPER_9B.n_layers + WHISPER_9B.encoder_layers


class TestGraphConstruction:
    @pytest.mark.parametrize("spec", [OPT_66B, LLAMA2_7B, BERT_21B, WHISPER_9B])
    def test_total_params_match_declared_checkpoint(self, spec):
        graph = build_transformer(spec)
        assert graph.total_param_bytes == pytest.approx(spec.checkpoint_bytes, rel=1e-9)

    def test_operator_count_scales_with_layers(self):
        graph = build_transformer(OPT_66B)
        # embed + 64 layers x 7 ops + final_norm + lm_head
        assert len(graph) == 1 + 64 * 7 + 2

    def test_whisper_has_cross_attention(self):
        graph = build_transformer(WHISPER_9B)
        kinds = {op.kind for op in graph.operators}
        assert OpKind.CROSS_ATTENTION in kinds
        assert OpKind.CONV_FRONTEND in kinds

    def test_prefix_aggregates_consistent(self):
        graph = build_transformer(LLAMA2_7B)
        mid = len(graph) // 2
        total = graph.param_bytes(0, mid) + graph.param_bytes(mid, len(graph))
        assert total == pytest.approx(graph.total_param_bytes)

    def test_kv_lives_only_in_decoder_attention(self):
        graph = build_transformer(OPT_66B)
        for op in graph.operators:
            if op.kv_bytes_per_token > 0:
                assert op.kind is OpKind.ATTENTION

    def test_cut_points_exclude_uncuttable_ops(self):
        graph = build_transformer(LLAMA2_7B)
        for i in graph.cut_points():
            assert graph.operators[i].cuttable_after
        # No cut allowed directly after a QKV projection.
        qkv = [op.index for op in graph.operators if op.kind is OpKind.QKV_PROJ]
        assert not set(qkv) & set(graph.cut_points())

    def test_layer_boundaries_have_quality_one(self):
        graph = build_transformer(LLAMA2_7B)
        for i in graph.layer_boundaries():
            assert graph.boundary_quality(i) == 1.0

    def test_networkx_view_is_acyclic_chain(self):
        graph = build_transformer(LLAMA2_7B)
        g = graph.to_networkx()
        assert g.number_of_nodes() == len(graph)
        assert g.number_of_edges() == len(graph) - 1
        graph.validate()


class TestCostModel:
    def test_floor_pow2(self):
        assert floor_pow2(0.5) == 0
        assert floor_pow2(1) == 1
        assert floor_pow2(127.9) == 64
        assert floor_pow2(128) == 128
        assert floor_pow2(1000) == 512

    def test_table2_compute_column_calibration(self, cost_model):
        """The affine compute model reproduces Table 2 within a few %."""
        paper = {30.0: 69.94e-3, 15.0: 36.63e-3, 7.5: 18.67e-3, 3.75: 9.67e-3}
        for gib, expected in paper.items():
            measured = cost_model.decode_iter_time(gib * GB, batch=1)
            assert measured == pytest.approx(expected, rel=0.05)

    def test_table2_load_column_exact_at_calibration_points(self, cost_model):
        paper = {30.0: 47.14, 15.0: 13.05, 7.5: 9.19, 3.75: 5.43}
        for gib, expected in paper.items():
            assert cost_model.cold_load_time(gib * GB) == pytest.approx(expected, rel=1e-6)

    def test_table2_comm_per_hop_calibration(self, cost_model):
        """2.1 ms per hop at the batch-128 OPT-66B operating point."""
        act = 128 * 9216 * 2  # batch x hidden x fp16
        assert cost_model.hop_time(act) == pytest.approx(2.1e-3, rel=0.05)

    def test_load_curve_monotone_and_interpolates(self, cost_model):
        times = [cost_model.cold_load_time(g * GB) for g in (2, 5, 10, 20, 40)]
        assert times == sorted(times)
        assert cost_model.cold_load_time(0) == 0.0

    def test_decode_time_grows_with_batch(self, cost_model):
        t1 = cost_model.decode_iter_time(10 * GB, 1)
        t64 = cost_model.decode_iter_time(10 * GB, 64)
        assert t64 > t1
        # ...but sub-linearly: the stream cost is amortised.
        assert t64 < 64 * t1

    def test_decode_rejects_zero_batch(self, cost_model):
        with pytest.raises(ValueError):
            cost_model.decode_iter_time(GB, 0)

    def test_prefill_scales_with_tokens(self, cost_model):
        t1 = cost_model.prefill_time(1e9, 128)
        t2 = cost_model.prefill_time(1e9, 256)
        assert t2 > t1

    def test_warm_load_much_faster_than_cold(self, cost_model):
        for gib in (3.75, 15.0, 30.0):
            assert cost_model.warm_load_time(gib * GB) < cost_model.cold_load_time(gib * GB) / 3

    def test_max_batch_zero_when_params_fill_gpu(self, cost_model):
        assert cost_model.max_batch(85 * GB, 1.0) == 0

    def test_max_batch_capped(self, cost_model):
        assert cost_model.max_batch(1 * GB, 1.0) == costs.MAX_BATCH_CAP

    def test_load_curve_points_are_sorted(self):
        # The log-log interpolation needs at least two points, by size.
        sizes = [size for size, _ in costs.LOAD_POINTS]
        assert len(sizes) >= 2 and sizes == sorted(sizes)


class TestTable2MaxBatch:
    """The headline Table 2 reproduction: 128/256/512/1024 emerges from
    KV-capacity physics + power-of-two flooring (DESIGN.md §4)."""

    @pytest.mark.parametrize(
        "n_stages,expected", [(4, 128), (8, 256), (16, 512), (32, 1024)]
    )
    def test_max_batch_matches_paper(self, cost_model, n_stages, expected):
        stage_bytes = OPT_66B.checkpoint_bytes / n_stages
        kv_per_request = OPT_66B.kv_bytes_per_request / n_stages
        assert cost_model.max_batch(stage_bytes, kv_per_request) == expected


class TestProfiler:
    def test_stage_profile_aggregates(self, opt_profile):
        stage = opt_profile.stage(0, len(opt_profile.graph))
        assert stage.param_bytes == pytest.approx(OPT_66B.checkpoint_bytes)
        assert stage.n_ops == len(opt_profile.graph)

    def test_invalid_range_rejected(self, opt_profile):
        with pytest.raises(ValueError):
            opt_profile.stage(10, 10)
        with pytest.raises(ValueError):
            opt_profile.stage(-1, 5)

    def test_kv_fractions_sum_to_one(self, opt_profile):
        n = len(opt_profile.graph)
        quarters = [opt_profile.stage(i * n // 4, (i + 1) * n // 4) for i in range(4)]
        total = sum(opt_profile.kv_fraction(s) for s in quarters)
        assert total == pytest.approx(1.0)

    def test_stage_max_batch_larger_for_smaller_stages(self, opt_profile):
        n = len(opt_profile.graph)
        half = opt_profile.stage(0, n // 2)
        eighth = opt_profile.stage(0, n // 8)
        assert opt_profile.stage_max_batch(eighth) >= opt_profile.stage_max_batch(half)
