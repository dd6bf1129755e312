"""Experiment harness: one driver per paper table/figure + reporting."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ablations": (
        "ablate_batch_size", "ablate_decoupling",
        "ablate_notification_strategy", "ablate_scalar_residual",
        "ablate_scratchpad_capacity", "ablate_scratchpad_fusion",
    ),
    "experiments": (
        "CONCURRENCY_LEVELS", "fig3a_runtime_breakdown",
        "fig3b_motivation_speedup", "fig5_topdown", "fig11_speedup",
        "fig12_breakdown", "fig13_throughput", "fig14_placement_speedup",
        "fig15_placement_energy", "fig16_ner_extension", "fig17_collectives",
        "fig18_lane_sweep", "fig19_pcie_generations", "run_mode",
        "table1_benchmarks",
    ),
    "report": ("Banner", "format_ratio", "format_table"),
    "orchestrator": (
        "ExperimentStore", "IncompleteGridError", "OrchestratorError",
        "collect", "decode_experiment", "encode_experiment", "fill_store",
        "grid_points", "point_key", "run_grid", "run_workers",
    ),
})
