"""Text-table formatting and JSON serialization helpers."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.utils.serialization import (
    dataclass_from_jsonable,
    dump_json,
    load_json,
    to_jsonable,
)
from repro.utils.tables import format_percentage_breakdown, format_table


class TestFormatTable:
    def test_basic_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [33, 4.0]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "a" in lines[0] and "bb" in lines[0]
        assert set(lines[1]) <= {"-", "+"}

    def test_float_formatting(self):
        text = format_table(["x"], [[3.14159265]], floatfmt=".3g")
        assert "3.14" in text

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text

    def test_wide_cells_extend_columns(self):
        text = format_table(["c"], [["averyverylongcellvalue"]])
        assert "averyverylongcellvalue" in text


class TestPercentageBreakdown:
    def test_sorted_by_share(self):
        text = format_percentage_breakdown({"a": 1.0, "b": 3.0}, total=4.0)
        assert text.index("b") < text.index("a")
        assert "75.0%" in text

    def test_zero_total(self):
        assert format_percentage_breakdown({"a": 1.0}, total=0.0) == "(empty)"

    def test_small_shares_dropped(self):
        text = format_percentage_breakdown({"a": 1.0, "tiny": 1e-9}, total=1.0)
        assert "tiny" not in text


@dataclass
class _Point:
    x: int
    y: float
    label: str


class TestSerialization:
    def test_dataclass_roundtrip(self, tmp_path):
        path = dump_json(_Point(1, 2.5, "hi"), tmp_path / "point.json")
        data = load_json(path)
        assert data == {"x": 1, "y": 2.5, "label": "hi"}

    def test_nested_structures(self, tmp_path):
        obj = {"points": [_Point(1, 1.0, "a"), _Point(2, 2.0, "b")], "meta": (1, 2)}
        path = dump_json(obj, tmp_path / "nested.json")
        data = json.loads(path.read_text())
        assert data["points"][1]["label"] == "b"
        assert data["meta"] == [1, 2]

    def test_numpy_scalars(self):
        assert to_jsonable(np.float64(1.5)) == 1.5
        assert to_jsonable(np.int64(7)) == 7

    def test_unknown_types_stringified(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        assert to_jsonable(Odd()) == "<odd>"

    def test_creates_parent_dirs(self, tmp_path):
        path = dump_json({"a": 1}, tmp_path / "sub" / "dir" / "x.json")
        assert path.exists()

    def test_type_hints_resolve_once_per_class(self, monkeypatch):
        """Rebuilding instances reuses each class's resolved type hints."""
        import typing

        resolved = []
        real = typing.get_type_hints

        def counting(cls, *args, **kwargs):
            resolved.append(cls)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(typing, "get_type_hints", counting)
        data = to_jsonable(_Point(1, 2.5, "hi"))
        first = dataclass_from_jsonable(_Point, data)
        resolved.clear()
        rebuilt = [dataclass_from_jsonable(_Point, data) for _ in range(3)]
        assert rebuilt == [first] * 3 == [_Point(1, 2.5, "hi")] * 3
        assert resolved == []


@dataclass(frozen=True)
class _UnionHolder:
    """Exercises PEP 604 / typing unions of structurally distinct members."""

    strategy: "str | tuple"
    degree: "int | None" = None
    payload: "str | dict" = ""


class TestUnionRoundTrip:
    """Union fields must reconstruct by JSON shape, not first-member order."""

    def test_str_member_survives(self):
        obj = _UnionHolder(strategy="tp1d")
        back = dataclass_from_jsonable(_UnionHolder, to_jsonable(obj))
        assert back == obj

    def test_tuple_member_survives(self):
        obj = _UnionHolder(strategy=("tp1d", "summa"))
        back = dataclass_from_jsonable(_UnionHolder, to_jsonable(obj))
        assert back.strategy == ("tp1d", "summa")

    def test_optional_and_dict_members(self):
        obj = _UnionHolder(strategy="x", degree=3, payload={"a": 1})
        back = dataclass_from_jsonable(_UnionHolder, to_jsonable(obj))
        assert back == obj

    def test_search_task_strategy_tuple_roundtrips(self):
        from repro.core.model import GPT3_1T
        from repro.core.system import make_system
        from repro.runtime import SearchTask

        task = SearchTask(
            model=GPT3_1T,
            system=make_system("B200", 8),
            n_gpus=128,
            global_batch_size=4096,
            strategy=("tp1d", "tp2d"),
        )
        back = dataclass_from_jsonable(SearchTask, to_jsonable(task))
        assert back.strategy == ("tp1d", "tp2d")
        assert back == task


class TestPlanSerialization:
    """The cost-plan / schedule dataclasses round-trip losslessly."""

    def _estimate(self):
        from repro.core.execution import evaluate_config
        from repro.core.model import GPT3_1T
        from repro.core.parallelism.base import GpuAssignment, ParallelConfig
        from repro.core.system import make_system

        config = ParallelConfig(
            strategy="tp1d", tensor_parallel_1=8, tensor_parallel_2=1,
            pipeline_parallel=32, data_parallel=8, microbatch_size=1,
            schedule="interleaved", virtual_stages=2,
        )
        return evaluate_config(
            GPT3_1T, make_system("B200", 8), config, GpuAssignment(nvs_tp1=8),
            global_batch_size=4096,
        )

    def test_cost_phase_roundtrip(self):
        from repro.core.plan import CATEGORY_DP_COMM, CostPhase

        phase = CostPhase(
            name="dp.grad_reduce_scatter", category=CATEGORY_DP_COMM,
            seconds=0.25, count=2.0, overlap_budget=0.1, memory_bytes=1e9,
        )
        assert dataclass_from_jsonable(CostPhase, to_jsonable(phase)) == phase

    def test_execution_plan_roundtrip(self, tmp_path):
        from repro.core.plan import ExecutionPlan

        plan = self._estimate().plan
        path = dump_json(plan, tmp_path / "plan.json")
        back = dataclass_from_jsonable(ExecutionPlan, load_json(path))
        assert back == plan
        assert back.reduce() == plan.reduce()

    def test_iteration_estimate_roundtrip_keeps_schedule_fields(self):
        from repro.core.execution import IterationEstimate

        est = self._estimate()
        back = dataclass_from_jsonable(IterationEstimate, to_jsonable(est))
        assert back == est
        assert back.config.schedule == "interleaved"
        assert back.config.virtual_stages == 2
        assert back.plan.phases == est.plan.phases

    def test_workload_spec_roundtrip(self):
        from repro.core.workloads import WorkloadSpec, get_workload

        spec = get_workload("gpt3-1t-interleaved")
        back = dataclass_from_jsonable(WorkloadSpec, to_jsonable(spec))
        assert back == spec
        assert back.pipeline_schedule == "interleaved"
