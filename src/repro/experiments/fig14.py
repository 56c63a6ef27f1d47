"""Fig. 14: whole-network execution time, normalised to the baseline.

Four panels:

* (a) CNN inference — VGG16 / dense ResNet-50 / pruned ResNet-50, each
  in FP32 and mixed precision; bars baseline / 2 VPUs / 1 VPU / dynamic.
* (b) GNMT inference — pruned, FP32 and mixed precision.
* (c) CNN end-to-end training — adds the per-epoch *static* bar and the
  forward / backward-input / backward-weight / 1st-layer breakdown.
* (d) GNMT end-to-end training.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.experiments.context import RunContext
from repro.experiments.executor import SimExecutor
from repro.experiments.report import ExperimentReport
from repro.kernels.tiling import Precision
from repro.model.estimator import NetworkEvaluation
from repro.model.inference import evaluate_inference
from repro.model.networks import GNMT, RESNET50_DENSE, RESNET50_PRUNED, VGG16
from repro.model.surface import COARSE_LEVELS, PAPER_LEVELS
from repro.model.training import evaluate_training
from repro.store import DEFAULT_STORE_ROOT

CNNS = (VGG16, RESNET50_DENSE, RESNET50_PRUNED)
PRECISIONS = (Precision.FP32, Precision.MIXED)

#: Paper's dynamic-configuration speedups, for side-by-side reporting.
PAPER_DYNAMIC = {
    ("a", "VGG16", "bf16"): 1.68,
    ("a", "ResNet-50", "bf16"): 1.37,
    ("a", "ResNet-50 pruned", "bf16"): 1.59,
    ("b", "GNMT pruned", "bf16"): 1.39,
    ("c", "VGG16", "bf16"): 1.64,
    ("c", "ResNet-50", "bf16"): 1.29,
    ("c", "ResNet-50 pruned", "bf16"): 1.42,
    ("d", "GNMT pruned", "bf16"): 1.28,
}


def _evaluate(panel: str, full_grid: bool, store: Path, k_steps: int,
              samples: int, engine: str = "exact",
              executor: Optional[SimExecutor] = None) -> list[NetworkEvaluation]:
    levels = PAPER_LEVELS if full_grid else COARSE_LEVELS
    evaluations: list[NetworkEvaluation] = []
    if panel == "a":
        networks, mode = CNNS, "inference"
    elif panel == "b":
        networks, mode = (GNMT,), "inference"
    elif panel == "c":
        networks, mode = CNNS, "training"
    else:
        networks, mode = (GNMT,), "training"
    for network in networks:
        for precision in PRECISIONS:
            if mode == "inference":
                evaluations.append(
                    evaluate_inference(
                        network, precision, store=store, levels=levels,
                        k_steps=k_steps, engine=engine, executor=executor,
                    )
                )
            else:
                evaluations.append(
                    evaluate_training(
                        network,
                        precision,
                        store=store,
                        levels=levels,
                        k_steps=k_steps,
                        samples=samples,
                        engine=engine,
                        executor=executor,
                    )
                )
    return evaluations


def run(ctx: Optional[RunContext] = None) -> ExperimentReport:
    """Render Fig. 14 (or one panel of it)."""
    ctx = ctx if ctx is not None else RunContext()
    store = ctx.store if ctx.store is not None else DEFAULT_STORE_ROOT
    k_steps = ctx.resolve_k_steps(16)
    panels = ("a", "b", "c", "d") if ctx.panel == "all" else (ctx.panel,)
    rows = []
    data: dict[str, dict] = {}
    for p in panels:
        for evaluation in _evaluate(
            p, ctx.full_grid, store, k_steps, ctx.samples, ctx.engine, ctx.executor
        ):
            key = f"14{p}/{evaluation.network}/{evaluation.precision.value}"
            data[key] = {
                label: result.total_ns
                for label, result in evaluation.configs.items()
            }
            paper = PAPER_DYNAMIC.get((p, evaluation.network, evaluation.precision.value))
            for label, norm, speedup in evaluation.rows():
                rows.append(
                    (
                        f"14{p}",
                        evaluation.network,
                        evaluation.precision.value,
                        label,
                        norm,
                        f"{speedup:.2f}x",
                        f"paper {paper:.2f}x" if paper and label == "dynamic" else "",
                    )
                )
    return ExperimentReport(
        experiment="fig14",
        title="Whole-network execution time normalised to baseline",
        headers=(
            "Panel",
            "Network",
            "Prec",
            "Config",
            "Norm. time",
            "Speedup",
            "Reference",
        ),
        rows=rows,
        notes=[
            "coarse sparsity grid by default; pass full_grid=True for the "
            "paper's 10%-step grid",
        ],
        data=data,
    )
