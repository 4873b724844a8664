"""Fig. 9 — speedup of CNV over the DaDianNao baseline.

Paper: 1.24x (google) to 1.55x (cnnS), 1.37x average from zero skipping
alone; 1.52x average with lossless dynamic pruning (CNV + Pruning).
"""

from __future__ import annotations

import numpy as np

from repro.core.pruning import raw_to_real
from repro.experiments.context import ExperimentContext
from repro.experiments.report import ExperimentResult
from repro.experiments.thresholds import lossless_thresholds

__all__ = ["run", "PAPER_SPEEDUPS"]

#: Fig. 9 values quoted in the text (min/max/mean given; per-network bars
#: for the rest are approximate readings used only for shape comparison).
PAPER_SPEEDUPS = {
    "alex": 1.37,
    "google": 1.24,
    "nin": 1.30,
    "vgg19": 1.42,
    "cnnM": 1.40,
    "cnnS": 1.55,
    "average": 1.37,
}

PAPER_PRUNING_SPEEDUPS = {
    "alex": 1.53,
    "google": 1.37,
    "nin": 1.39,
    "vgg19": 1.57,
    "cnnM": 1.56,
    "cnnS": 1.75,
    "average": 1.52,
}


def run(ctx: ExperimentContext, with_pruning: bool = True) -> ExperimentResult:
    rows = []
    plain: list[float] = []
    pruned: list[float] = []
    for name in ctx.config.networks:
        per_image = ctx.speedups_across_images(name)
        speedup = float(np.mean(per_image))
        plain.append(speedup)
        row = {
            "network": name,
            "CNV": speedup,
            "std": float(np.std(per_image)),
            "paper_CNV": PAPER_SPEEDUPS.get(name, float("nan")),
        }
        if with_pruning:
            point = lossless_thresholds(ctx, name)
            thresholds = {
                k: raw_to_real(v) for k, v in point.raw_thresholds.items() if v
            }
            pruning_speedup = ctx.backend_speedup("cnv", name, thresholds)
            pruned.append(pruning_speedup)
            row["CNV+Pruning"] = pruning_speedup
            row["paper_CNV+Pruning"] = PAPER_PRUNING_SPEEDUPS.get(name, float("nan"))
        rows.append(row)
    summary = {
        "network": "average",
        "CNV": float(np.mean(plain)),
        "paper_CNV": 1.37,
    }
    if with_pruning:
        summary["CNV+Pruning"] = float(np.mean(pruned))
        summary["paper_CNV+Pruning"] = 1.52
    rows.append(summary)
    return ExperimentResult(
        experiment="fig9",
        title="Speedup of CNV over the baseline",
        rows=rows,
        notes="paper gives exact values for min (google 1.24), max (cnnS 1.55) "
        "and the mean (1.37 / 1.52 with pruning); other bars are readings.",
    )
