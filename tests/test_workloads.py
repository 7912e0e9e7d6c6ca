"""The pluggable workload registry (:mod:`repro.core.workloads`)."""

import pytest

from repro.core.model import GPT3_1T, MODEL_CATALOG, TransformerConfig, get_model
from repro.core.workloads import (
    MOE_1T,
    MOE_MIXTRAL,
    WORKLOAD_REGISTRY,
    WorkloadSpec,
    available_workloads,
    get_workload,
    register_workload,
)


class TestRegistryLookup:
    def test_paper_presets_are_registered(self):
        for name in MODEL_CATALOG:
            assert get_workload(name).model is MODEL_CATALOG[name]

    def test_lookup_is_case_insensitive(self):
        assert get_workload("MoE-1T").model is MOE_1T
        assert get_workload("  gpt3-1t ").model is GPT3_1T

    def test_unknown_workload_lists_available(self):
        with pytest.raises(KeyError, match="moe-1t"):
            get_workload("no-such-model")

    def test_get_model_resolves_registry_names(self):
        assert get_model("moe-1t") is MOE_1T
        assert get_model("moe-mixtral") is MOE_MIXTRAL
        with pytest.raises(KeyError):
            get_model("no-such-model")

    def test_available_workloads_superset_of_catalog(self):
        names = available_workloads()
        assert set(MODEL_CATALOG) <= set(names)
        assert "moe-1t" in names and "gpt3-1t-gqa" in names

    def test_shadowed_catalogue_name_resolves_the_same_everywhere(self, monkeypatch):
        """A re-registered catalogue name is one model for every lookup."""
        shallow = TransformerConfig(
            name="GPT3-1T", seq_len=2048, embed_dim=25600, num_heads=160, depth=64
        )
        monkeypatch.setitem(
            WORKLOAD_REGISTRY, "gpt3-1t", WorkloadSpec(name="gpt3-1t", model=shallow)
        )
        assert get_model("gpt3-1t") is get_workload("gpt3-1t").model is shallow
        assert get_model("GPT3-1T").depth == 64


class TestRegistration:
    def test_register_and_shadow(self):
        tiny = TransformerConfig(
            name="tiny-reg", seq_len=256, embed_dim=512, num_heads=8, depth=2
        )
        spec = WorkloadSpec(name="test-tiny", model=tiny, description="unit test")
        try:
            register_workload(spec, aliases=("test-tiny-alias",))
            assert get_workload("test-tiny") is spec
            assert get_workload("test-tiny-alias") is spec
            assert get_model("test-tiny") is tiny
            # Re-registering shadows the previous entry.
            shadow = WorkloadSpec(name="test-tiny", model=GPT3_1T)
            register_workload(shadow)
            assert get_workload("test-tiny") is shadow
        finally:
            WORKLOAD_REGISTRY.pop("test-tiny", None)
            WORKLOAD_REGISTRY.pop("test-tiny-alias", None)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            WorkloadSpec(name="   ", model=GPT3_1T)

    def test_summary_includes_scenario_fields(self):
        summary = get_workload("moe-1t").summary()
        assert summary["workload"] == "moe-1t"
        assert summary["num_experts"] == 32
        assert summary["moe_top_k"] == 2
        assert summary["kv_heads"] == 8
        assert summary["params_active"] < summary["params_total"]


class TestScenarioPresets:
    def test_moe_1t_is_about_a_trillion_total_params(self):
        assert 0.9e12 < MOE_1T.total_params < 1.3e12
        assert MOE_1T.active_params < 0.1 * MOE_1T.total_params

    def test_mixtral_shape(self):
        assert MOE_MIXTRAL.num_experts == 8
        assert MOE_MIXTRAL.moe_top_k == 2
        assert MOE_MIXTRAL.hidden_dim == 14336
        # ~47B-class total, ~13B-class active (we omit embeddings).
        assert 25e9 < MOE_MIXTRAL.total_params < 50e9
        assert MOE_MIXTRAL.active_params < 15e9

    def test_gqa_preset_matches_dense_except_kv(self):
        gqa = get_workload("gpt3-1t-gqa").model
        assert gqa.kv_heads == 8
        assert (gqa.seq_len, gqa.embed_dim, gqa.num_heads, gqa.depth) == (
            GPT3_1T.seq_len,
            GPT3_1T.embed_dim,
            GPT3_1T.num_heads,
            GPT3_1T.depth,
        )
        assert gqa.total_params < GPT3_1T.total_params
