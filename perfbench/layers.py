"""The spans of the traced run and the per-layer metrics made from them.

Each target is the name a calling module looks a layer's public function
up under, so the span covers exactly the calls that module makes.  Calls
a layer makes into itself (``fit_cbps`` starting from
``propensity.fit_logistic_irls``) stay inside the caller's span.
"""

from __future__ import annotations

from perfbench.tracer import OperationTrace, Tracer

ROOT_LAYER = "op"


def _fit_done(tracer: Tracer, fit) -> None:
    tracer.count("fit_iterations", fit.iterations)


def _subset_done(tracer: Tracer, estimate) -> None:
    cells = estimate.draws.shape[0] * (estimate.b0 + estimate.b1)
    tracer.count("replicate_cells", cells)
    # r x b int64 counts: the two count matrices run_subset holds at once.
    tracer.record_max("count_matrix_bytes", cells * 8)


# (module attribute, layer, counter hook)
TARGETS = (
    ("causalboot.cli.load_csv", "data.load_csv", None),
    ("causalboot.cli._digest", "cli.digest", None),
    ("causalboot.cli._write_json", "cli.write", None),
    ("causalboot.cli._write_csv", "cli.write", None),
    ("causalboot.cli.run_blb", "engine.run_blb", None),
    ("causalboot.simulation.run_blb", "engine.run_blb", None),
    ("causalboot.engine.run_blb", "engine.run_blb", None),
    ("causalboot.simulation.generate_dgm", "simulation.generate", None),
    ("causalboot.engine.draw_subset", "data.draw_subset", None),
    ("causalboot.rng.substream", "rng.substream", None),
    ("causalboot.engine.fit_logistic_irls", "propensity.fit", _fit_done),
    ("causalboot.engine.fit_cbps", "propensity.fit", _fit_done),
    ("causalboot.engine.marginal_propensity", "propensity.fit", _fit_done),
    ("causalboot.engine.truncate_scores", "propensity.fit", None),
    ("causalboot.engine.order_subset", "engine.order_subset", None),
    ("causalboot.engine.smd_balance", "inference.balance", None),
    ("causalboot.engine.percentile_ci", "inference.summaries", None),
    ("causalboot.engine.asymptotic_ci", "inference.summaries", None),
    ("causalboot.engine.hajek_ipw", "inference.summaries", None),
    ("causalboot.engine.run_subset", "engine.resample", _subset_done),
)

# Per-layer metrics of one traced operation, with their units.  A layer a
# workload never calls reads 0.
UNITS = {
    "data.load_csv_s": "s",
    "cli.digest_s": "s",
    "cli.write_s": "s",
    "data.draw_subset_s": "s",
    "rng.substream_s": "s",
    "rng.substreams": "count",
    "propensity.fit_s": "s",
    "propensity.fit_iterations": "count",
    "engine.order_subset_s": "s",
    "inference.balance_s": "s",
    "inference.summaries_s": "s",
    "engine.resample_s": "s",
    "engine.replicate_cells": "count",
    "engine.resample_ns_per_cell": "ns",
    "engine.count_matrix_mb": "MB",
    "engine.subset_yield": "ratio",
    "engine.run_blb_self_s": "s",
    "simulation.generate_s": "s",
    "op.other_s": "s",
    "process.cpu_s": "s",
}


def install(tracer: Tracer) -> None:
    for target, layer, hook in TARGETS:
        tracer.wrap(target, layer, hook)


def metrics(trace: OperationTrace, cpu_seconds: float) -> dict[str, float]:
    """Per-layer figures of one operation, keyed as in ``UNITS``."""
    own = trace.self_seconds
    cells = trace.counters["replicate_cells"]
    resample = own.get("engine.resample", 0.0)
    draws = trace.calls["data.draw_subset"]
    return {
        "data.load_csv_s": own.get("data.load_csv", 0.0),
        "cli.digest_s": own.get("cli.digest", 0.0),
        "cli.write_s": own.get("cli.write", 0.0),
        "data.draw_subset_s": own.get("data.draw_subset", 0.0),
        "rng.substream_s": own.get("rng.substream", 0.0),
        "rng.substreams": trace.calls["rng.substream"],
        "propensity.fit_s": own.get("propensity.fit", 0.0),
        "propensity.fit_iterations": trace.counters["fit_iterations"],
        "engine.order_subset_s": own.get("engine.order_subset", 0.0),
        "inference.balance_s": own.get("inference.balance", 0.0),
        "inference.summaries_s": own.get("inference.summaries", 0.0),
        "engine.resample_s": resample,
        "engine.replicate_cells": cells,
        "engine.resample_ns_per_cell": resample / cells * 1e9 if cells else 0.0,
        "engine.count_matrix_mb": trace.max_counters.get("count_matrix_bytes", 0) / 2**20,
        "engine.subset_yield": trace.calls["engine.resample"] / draws if draws else 0.0,
        "engine.run_blb_self_s": own.get("engine.run_blb", 0.0),
        "simulation.generate_s": own.get("simulation.generate", 0.0),
        "op.other_s": own.get(ROOT_LAYER, 0.0),
        "process.cpu_s": cpu_seconds,
    }
