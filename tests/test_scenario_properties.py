"""Property-based tests of the scenario axes (MoE, GQA, ZeRO).

Each new dimension must reduce *exactly* to the paper's dense model at its
default setting — that is the contract that keeps every golden figure
byte-stable — and behave monotonically where the physics demands it:

* MoE FLOPs/params reduce to the dense model at ``num_experts=1, top_k=1``;
* GQA reduces to MHA at ``kv_heads == num_heads``;
* the default options are ZeRO stage 1, the paper's distributed optimizer;
* sharded memory is monotonically non-increasing in the ZeRO stage and in
  the data-parallel degree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.execution import ModelingOptions, estimate_config_memory
from repro.core.model import TransformerConfig
from repro.core.parallelism.base import GpuAssignment, ParallelConfig, get_strategy

#: Small architectures keep the strategies' divisibility rules satisfiable:
#: heads/kv-heads/TP degrees all powers of two, seq divisible by 64.
EMBED = st.sampled_from([512, 1024, 2048])
HEADS = st.sampled_from([8, 16, 32])
DEPTH = st.sampled_from([2, 4, 8])
SEQ = st.sampled_from([256, 512, 1024])
EXPERTS = st.sampled_from([2, 4, 8])
TP = st.sampled_from([1, 2, 4])


def _model(seq, e, h, d, **kw):
    return TransformerConfig(
        name="prop", seq_len=seq, embed_dim=e, num_heads=h, depth=d, **kw
    )


def _config(nt, nd=1, ep=1, strategy="tp1d", n2=1, np_=1, bm=1):
    return ParallelConfig(
        strategy=strategy,
        tensor_parallel_1=nt,
        tensor_parallel_2=n2,
        pipeline_parallel=np_,
        data_parallel=nd,
        microbatch_size=bm,
        expert_parallel=ep,
    )


def _workload_signature(workload):
    """Comparable view of everything the execution model reads."""
    return (
        [(op.name, op.flops, op.bytes_hbm, op.pipe) for op in workload.forward_ops],
        [(op.name, op.flops, op.bytes_hbm, op.pipe) for op in workload.backward_ops],
        [(c.name, c.collective, c.volume_bytes, c.group) for c in workload.forward_comms],
        [(c.name, c.collective, c.volume_bytes, c.group) for c in workload.backward_comms],
        workload.activation_elements,
        workload.block_input_elements,
        workload.params_per_gpu,
        workload.expert_params_per_gpu,
        workload.grad_sync_group,
    )


class TestMoEReducesToDense:
    @given(seq=SEQ, e=EMBED, h=HEADS, d=DEPTH)
    @settings(max_examples=25, deadline=None)
    def test_model_accounting_identical_at_one_expert(self, seq, e, h, d):
        dense = _model(seq, e, h, d)
        moe1 = _model(seq, e, h, d, num_experts=1, moe_top_k=1)
        assert moe1.total_params == dense.total_params
        assert moe1.active_params == dense.total_params
        assert moe1.mlp_flops_per_layer() == dense.mlp_flops_per_layer()
        assert moe1.attention_flops_per_layer() == dense.attention_flops_per_layer()
        assert moe1.forward_flops() == dense.forward_flops()

    @given(seq=SEQ, e=EMBED, h=HEADS, d=DEPTH, nt=TP, strategy=st.sampled_from(["tp1d", "tp2d"]))
    @settings(max_examples=25, deadline=None)
    def test_workload_identical_at_one_expert(self, seq, e, h, d, nt, strategy):
        dense = _model(seq, e, h, d)
        moe1 = _model(seq, e, h, d, num_experts=1, moe_top_k=1)
        strat = get_strategy(strategy)
        cfg = _config(nt, strategy=strategy)
        assert _workload_signature(strat.layer_workload(dense, cfg)) == _workload_signature(
            strat.layer_workload(moe1, cfg)
        )

    @given(seq=SEQ, e=EMBED, h=HEADS, d=DEPTH, experts=EXPERTS, top_k=st.sampled_from([1, 2]))
    @settings(max_examples=25, deadline=None)
    def test_moe_scaling_laws(self, seq, e, h, d, experts, top_k):
        dense = _model(seq, e, h, d)
        moe = _model(seq, e, h, d, num_experts=experts, moe_top_k=top_k)
        # Parameters: E experts' MLPs plus the router, same attention.
        assert moe.mlp_params_per_layer == (
            experts * dense.mlp_params_per_layer + e * experts
        )
        assert moe.attention_params_per_layer == dense.attention_params_per_layer
        # FLOPs: top_k active experts plus the router gate.
        assert moe.mlp_flops_per_layer() == pytest.approx(
            top_k * dense.mlp_flops_per_layer() + 2.0 * seq * e * experts
        )
        # Active params never exceed total params; equality iff all experts fire.
        assert moe.active_params <= moe.total_params
        if top_k == experts:
            assert moe.active_params == moe.total_params


class TestGQAReducesToMHA:
    @given(seq=SEQ, e=EMBED, h=HEADS, d=DEPTH)
    @settings(max_examples=25, deadline=None)
    def test_model_accounting_identical_at_full_kv_heads(self, seq, e, h, d):
        mha = _model(seq, e, h, d)
        gqa_full = _model(seq, e, h, d, kv_heads=h)
        assert gqa_full.attention_params_per_layer == mha.attention_params_per_layer
        assert gqa_full.attention_flops_per_layer() == mha.attention_flops_per_layer()
        assert gqa_full.total_params == mha.total_params

    @given(
        seq=SEQ,
        e=EMBED,
        h=HEADS,
        d=DEPTH,
        nt=TP,
        strategy=st.sampled_from(["tp1d", "tp2d", "summa"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_workload_identical_at_full_kv_heads(self, seq, e, h, d, nt, strategy):
        mha = _model(seq, e, h, d)
        gqa_full = _model(seq, e, h, d, kv_heads=h)
        strat = get_strategy(strategy)
        n2 = 2 if strategy in ("tp2d", "summa") else 1
        cfg = _config(nt, strategy=strategy, n2=n2)
        assert _workload_signature(strat.layer_workload(mha, cfg)) == _workload_signature(
            strat.layer_workload(gqa_full, cfg)
        )

    @given(seq=SEQ, e=EMBED, h=HEADS, d=DEPTH, kv_frac=st.sampled_from([2, 4, 8]))
    @settings(max_examples=25, deadline=None)
    def test_gqa_shrinks_params_and_kv_traffic(self, seq, e, h, d, kv_frac):
        kv = h // kv_frac
        mha = _model(seq, e, h, d)
        gqa = _model(seq, e, h, d, kv_heads=kv)
        assert gqa.attention_params_per_layer < mha.attention_params_per_layer
        assert gqa.attention_flops_per_layer() < mha.attention_flops_per_layer()
        # tp2d gathers K/V over the n2 group: the volume shrinks by kv/h.
        cfg = _config(1, strategy="tp2d", n2=2)
        mha_w = get_strategy("tp2d").layer_workload(mha, cfg)
        gqa_w = get_strategy("tp2d").layer_workload(gqa, cfg)
        mha_kv = sum(c.volume_bytes for c in mha_w.forward_comms if c.name in ("sa.ag_k", "sa.ag_v"))
        gqa_kv = sum(c.volume_bytes for c in gqa_w.forward_comms if c.name in ("sa.ag_k", "sa.ag_v"))
        assert gqa_kv == pytest.approx(mha_kv * kv / h)


class TestZeroStages:
    @given(nd=st.sampled_from([1, 2, 4, 8, 16]), nt=TP)
    @settings(max_examples=25, deadline=None)
    def test_stage_defaults_reproduce_legacy_memory(self, nd, nt):
        """The default options are stage 1, the paper's distributed optimizer."""
        model = _model(512, 1024, 16, 4)
        cfg = _config(nt, nd=nd)
        batch = 4 * nd
        default = estimate_config_memory(
            model, cfg, global_batch_size=batch, options=ModelingOptions()
        )
        stage1 = estimate_config_memory(
            model, cfg, global_batch_size=batch, options=ModelingOptions(zero_stage=1)
        )
        assert stage1.breakdown() == default.breakdown()

    @given(nd=st.sampled_from([2, 4, 8, 16]), nt=TP, experts=st.sampled_from([1, 4]))
    @settings(max_examples=25, deadline=None)
    def test_memory_monotone_in_zero_stage(self, nd, nt, experts):
        model = _model(512, 1024, 16, 4, num_experts=experts, moe_top_k=1)
        ep = min(2, nd) if experts > 1 else 1
        cfg = _config(nt, nd=nd, ep=ep)
        batch = 4 * nd
        totals = [
            estimate_config_memory(
                model, cfg, global_batch_size=batch, options=ModelingOptions(zero_stage=s)
            ).total_bytes
            for s in (0, 1, 2, 3)
        ]
        assert all(totals[i] >= totals[i + 1] for i in range(3))

    @given(nt=TP, stage=st.sampled_from([0, 1, 2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_memory_monotone_in_dp_degree(self, nt, stage):
        """At a fixed per-replica batch, growing nd never raises per-GPU memory."""
        model = _model(512, 1024, 16, 4)
        totals = []
        for nd in (1, 2, 4, 8, 16):
            cfg = _config(nt, nd=nd)
            totals.append(
                estimate_config_memory(
                    model,
                    cfg,
                    global_batch_size=4 * nd,  # keeps microbatch count fixed
                    options=ModelingOptions(zero_stage=stage),
                ).total_bytes
            )
        assert all(totals[i] >= totals[i + 1] - 1e-9 for i in range(len(totals) - 1))

    def test_invalid_stage_rejected(self):
        model = _model(512, 1024, 16, 4)
        cfg = _config(1, nd=2)
        with pytest.raises(ValueError, match="zero_stage"):
            estimate_config_memory(
                model, cfg, global_batch_size=4, options=ModelingOptions(zero_stage=4)
            )


class TestExpertParallelAxis:
    @given(ep=st.sampled_from([1, 2, 4]), nd=st.sampled_from([4, 8]))
    @settings(max_examples=20, deadline=None)
    def test_expert_memory_shrinks_with_ep(self, ep, nd):
        model = _model(512, 1024, 16, 4, num_experts=4, moe_top_k=2)
        cfg = _config(1, nd=nd, ep=ep)
        strat = get_strategy("tp1d")
        workload = strat.layer_workload(model, cfg)
        # E/ep experts resident per GPU.
        assert workload.expert_params_per_gpu == pytest.approx(
            (4 / ep) * 2.0 * model.embed_dim * model.hidden_dim
        )

    def test_ep_must_divide_dp(self):
        with pytest.raises(ValueError, match="expert_parallel"):
            _config(1, nd=4, ep=3)

    def test_ep_on_dense_model_rejected(self):
        model = _model(512, 1024, 16, 4)
        cfg = _config(1, nd=4, ep=2)
        assert "expert_parallel" in get_strategy("tp1d").validate_config(model, cfg)

    def test_summa_rejects_moe(self):
        model = _model(512, 1024, 16, 4, num_experts=4, moe_top_k=2)
        cfg = _config(2, nd=2, strategy="summa", n2=2)
        reason = get_strategy("summa").validate_config(model, cfg)
        assert reason is not None and "mixture-of-experts" in reason
