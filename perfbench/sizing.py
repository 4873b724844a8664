"""Workload sizing, kept free of heavy imports.

``run.py`` reads this before numpy is imported (it pins BLAS threads
first).  Rates are open-loop arrivals per second; ``open_share`` is the
part of ``--seconds`` spent in the open loop, the rest measuring
closed-loop capacity.
"""

SETUP_REPEATS = 3

SERVE_MIXED = {
    "scale": "tiny",
    "networks": ("alex", "google", "nin", "cnnS"),
    "rate_rps": 10.0,
    "open_share": 0.7,
    "windows": 3,
    "workers": 1,
    "sample": 12,
}
SERVE_SWEEP = {
    "scale": "reduced",
    "networks": ("alex", "nin"),
    "variants_per_network": 4,
    "shards": 2,
    "engine_cache_mb": 128.0,
    "rate_rps": 100.0,
    "open_share": 0.75,
    "windows": 5,
    "sample": 16,
}
EXPERIMENT_COLD = {
    "scale": "tiny",
    "networks": ["alex", "nin", "vgg19"],
    "only": ["fig1", "fig9", "fig9_backends"],
}
DESIGN_SWEEP = {
    "scale": "tiny",
    "networks": ["alex", "google", "nin", "vgg19", "cnnM", "cnnS"],
    "ladder": [
        {},
        {"brick_size": 8},
        {"empty_brick_cycles": 0},
        {"brick_size": 8, "empty_brick_cycles": 0},
    ],
}

SIZING = {
    "serve-mixed": SERVE_MIXED,
    "serve-sweep": SERVE_SWEEP,
    "experiment-cold": EXPERIMENT_COLD,
    "design-sweep": DESIGN_SWEEP,
}
