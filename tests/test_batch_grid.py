"""Tier-2 exhaustive batch-vs-scalar equivalence grid (paper-scale).

The tier-1 grid (``tests/test_batch_eval.py``) pins the batch pricer on
tiny models; this tier-2 grid (``pytest -m batch_grid``, excluded from the
default run) walks **full paper-scale enumerations** — GPT3-1T and the
long-sequence ViT at real GPU counts, every schedule and strategy axis the
cost-plan IR exposes — and asserts exact (``==``) equality of every
breakdown term on every candidate.  This is the suite that makes "the
scalar path is the bit-exactness oracle" a checked invariant rather than a
comment.
"""

from dataclasses import replace

import pytest

from enumeration_rows import batch_evaluate_enumeration
from repro.core.config_space import DEFAULT_SEARCH_SPACE
from repro.core.execution import DEFAULT_OPTIONS, evaluate_config
from repro.core.model import GPT3_1T, VIT_LONG_SEQ
from repro.core.system import make_system

pytestmark = pytest.mark.batch_grid

B200_NVS8 = make_system("B200", 8)
H200_NVS8 = make_system("H200", 8)

FULL_SPACE = replace(
    DEFAULT_SEARCH_SPACE,
    schedules=("1f1b", "gpipe", "interleaved"),
    virtual_stages=(1, 2),
)

GRID = [
    pytest.param(GPT3_1T, B200_NVS8, 1024, 4096, "tp1d", DEFAULT_OPTIONS, id="gpt3-1t-tp1d"),
    pytest.param(GPT3_1T, B200_NVS8, 1024, 4096, "tp2d", DEFAULT_OPTIONS, id="gpt3-1t-tp2d"),
    pytest.param(GPT3_1T, B200_NVS8, 1024, 4096, "summa", DEFAULT_OPTIONS, id="gpt3-1t-summa"),
    pytest.param(
        GPT3_1T,
        H200_NVS8,
        512,
        2048,
        "tp1d",
        replace(DEFAULT_OPTIONS, zero_stage=3),
        id="gpt3-1t-h200-zero3",
    ),
    pytest.param(
        VIT_LONG_SEQ,
        B200_NVS8,
        256,
        1024,
        "tp2d",
        replace(DEFAULT_OPTIONS, activation_checkpointing=True),
        id="vit-tp2d-checkpointing",
    ),
    pytest.param(VIT_LONG_SEQ, B200_NVS8, 256, 1024, "summa", DEFAULT_OPTIONS, id="vit-summa"),
]


@pytest.mark.parametrize("model,system,n_gpus,global_batch,strategy,options", GRID)
def test_full_enumeration_batch_equals_scalar(
    model, system, n_gpus, global_batch, strategy, options
):
    rows, priced = batch_evaluate_enumeration(
        model, system, n_gpus, global_batch, strategy, space=FULL_SPACE, options=options
    )
    assert rows
    mismatches = []
    for i, row in enumerate(rows):
        estimate = evaluate_config(
            model,
            system,
            row.config,
            row.assignment,
            global_batch_size=global_batch,
            options=options,
        )
        scalar = estimate.breakdown
        fields = {
            "compute": (priced.compute[i], scalar.compute),
            "memory": (priced.memory[i], scalar.memory),
            "tp_comm": (priced.tp_comm[i], scalar.tp_comm),
            "pp_bubble": (priced.pp_bubble[i], scalar.pp_bubble),
            "pp_comm": (priced.pp_comm[i], scalar.pp_comm),
            "dp_comm": (priced.dp_comm[i], scalar.dp_comm),
            "total": (priced.total[i], estimate.total_time),
        }
        for name, (got, want) in fields.items():
            if got != want:
                mismatches.append((row.config, row.assignment, name, got, want))
    assert not mismatches, (
        f"{len(mismatches)}/{len(rows)} candidates diverge from the scalar "
        f"oracle; first: {mismatches[0]}"
    )
