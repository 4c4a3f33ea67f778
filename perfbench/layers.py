"""Per-layer metrics of a traced run, one value per timed operation.

Layers are the ``scafd`` modules.  Times are seconds per operation (one
training, one toy round, one detection cycle); ``_s`` names without "self"
are inclusive of the wrapped calls beneath them.  A layer a workload never
calls reads 0 there.

These counts repeat exactly from run to run and are the ones later
count-based claims rest on: ``optimizer.cost_calls``,
``optimizer.iterations``, ``optimizer.cost_gflop`` and ``data.expand_mb``.
``optimizer.cost_gflop`` and ``data.expand_mb`` are computed from argument
shapes, not measured: 4*N*m*p flops per cost call (its two N x m x p
products) and 8*N*m bytes per expansion, with N = 1 + n + n^2.

The ``activations`` functions are lambdas held in frozen dataclasses and
reached only through the callers below, so their time shows as self time
of ``optimizer.cost`` / ``optimizer.euclidean_grad`` and of encoding.
"""

from __future__ import annotations

from pathlib import Path

from scafd import baselines, cli, data, manifold, optimizer, persistence, sca

from tracing import SpanStats, Tracer

TRACED_MODULES = [data, manifold, optimizer, sca, baselines, persistence, cli]
LAYERS = ["data", "manifold", "optimizer", "sca", "baselines", "persistence", "cli"]


def _cost_flops(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    point, X = args[0], args[1]
    N, m = X.shape
    tracer.add("cost_flops", 4 * N * m * point.w.shape[1])


def _cg_iterations(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.add("cg_iterations", result[1].iterations)


def _expand_bytes(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    n, m = args[0].values.shape
    tracer.add("expand_bytes", 8 * data.expanded_dim(n) * m)


def _ae_steps(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.add("ae_trainings", 1)
    tracer.add("ae_iterations", result[1].iterations)


def _model_bytes(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.add("model_bytes", Path(result).stat().st_size)


def _bench_failures(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.add("bench_failures", sum(row["mdr"] is None for row in result.rows))


HOOKS = {
    "optimizer.cost": _cost_flops,
    "optimizer.cg_optimize": _cg_iterations,
    "data.expand_second_order": _expand_bytes,
    "baselines.ae_train": _ae_steps,
    "persistence.save_model": _model_bytes,
    "cli.run_bench": _bench_failures,
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("optimizer.iterations", "count", "lower"),
    ("optimizer.cost_calls", "count", "lower"),
    ("optimizer.cost_s", "s", "lower"),
    ("optimizer.grad_calls", "count", "lower"),
    ("optimizer.grad_s", "s", "lower"),
    ("optimizer.line_search_self_s", "s", "lower"),
    ("optimizer.trials_per_iter", "count", "lower"),
    ("optimizer.ls_accept_ratio", "ratio", "higher"),
    ("optimizer.cost_gflop", "GFLOP-computed", "lower"),
    ("manifold.retract_calls", "count", "lower"),
    ("manifold.retract_s", "s", "lower"),
    ("manifold.ortho_checks", "count", "lower"),
    ("manifold.ortho_check_s", "s", "lower"),
    ("manifold.transport_s", "s", "lower"),
    ("data.expand_calls", "count", "lower"),
    ("data.expand_s", "s", "lower"),
    ("data.expand_mb", "MB-computed", "lower"),
    ("data.scale_s", "s", "lower"),
    ("data.load_csv_s", "s", "lower"),
    ("sca.fit_stats_s", "s", "lower"),
    ("sca.control_limit_s", "s", "lower"),
    ("sca.kde_pdf_calls", "count", "lower"),
    ("sca.monitor_calls", "count", "lower"),
    ("sca.encode_self_s", "s", "lower"),
    ("sca.t2_batch_s", "s", "lower"),
    ("baselines.ae_cost_grad_calls", "count", "lower"),
    ("baselines.ae_cost_grad_s", "s", "lower"),
    ("baselines.ae_accept_ratio", "ratio", "higher"),
    ("baselines.pca_fit_s", "s", "lower"),
    ("baselines.kpca_fit_s", "s", "lower"),
    ("persistence.load_s", "s", "lower"),
    ("persistence.save_s", "s", "lower"),
    ("persistence.model_bytes", "bytes", "lower"),
    ("cli.gen_toy_setup_s", "s", "lower"),
    ("cli.run_bench_self_s", "s", "lower"),
    ("cli.failures", "count", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("trace.op_s", "s", "lower"),
    ("trace.op_overhead_s", "s", "lower"),
    ("trace.setup_overhead_s", "s", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    ops: SpanStats, setup: SpanStats, counters: dict[str, float], n_ops: int
) -> dict[str, float]:
    """Every PER_LAYER value except the trace.* ones, per operation."""
    calls, total, own = ops.calls, ops.total, ops.self_time

    def c(name: str) -> int:
        return calls.get(name, 0)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    iterations = counters.get("cg_iterations", 0.0)
    trials = c("optimizer.move")
    ae_trials = c("baselines.ae_cost_grad") - counters.get("ae_trainings", 0.0)
    raw = {
        "optimizer.iterations": iterations,
        "optimizer.cost_calls": c("optimizer.cost"),
        "optimizer.cost_s": t("optimizer.cost"),
        "optimizer.grad_calls": c("optimizer.euclidean_grad"),
        "optimizer.grad_s": t("optimizer.euclidean_grad"),
        "optimizer.line_search_self_s": own.get("optimizer.line_search", 0.0),
        "manifold.retract_calls": c("manifold.retract"),
        "manifold.retract_s": t("manifold.retract"),
        "manifold.ortho_checks": c("manifold.orthonormality_error"),
        "manifold.ortho_check_s": t("manifold.orthonormality_error"),
        "manifold.transport_s": t("manifold.transport"),
        "data.expand_calls": c("data.expand_second_order"),
        "data.expand_s": t("data.expand_second_order"),
        "data.scale_s": t("data.apply_scaler") + t("data.fit_scaler"),
        "data.load_csv_s": t("data.load_csv"),
        "sca.fit_stats_s": t("sca.fit_monitoring_stats"),
        "sca.control_limit_s": t("sca.control_limit"),
        "sca.kde_pdf_calls": c("sca.kde_pdf"),
        "sca.monitor_calls": c("sca.monitor"),
        "sca.encode_self_s": own.get("sca.ScaModel.encode_batch", 0.0) + own.get("sca.encode", 0.0),
        "sca.t2_batch_s": t("sca.t2_batch"),
        "baselines.ae_cost_grad_calls": c("baselines.ae_cost_grad"),
        "baselines.ae_cost_grad_s": t("baselines.ae_cost_grad"),
        "baselines.pca_fit_s": t("baselines.pca_fit"),
        "baselines.kpca_fit_s": t("baselines.kpca_fit"),
        "persistence.load_s": t("persistence.load_model"),
        "persistence.save_s": t("persistence.save_model"),
        "persistence.model_bytes": counters.get("model_bytes", 0.0),
        "cli.run_bench_self_s": own.get("cli.run_bench", 0.0),
        "cli.failures": counters.get("bench_failures", 0.0),
    }
    raw.update({f"{layer}.self_s": ops.layer_self(layer) for layer in LAYERS})
    out = {k: v / n_ops for k, v in raw.items()}
    # Whole flop and byte totals divide exactly, so these repeat bit for bit.
    out["optimizer.cost_gflop"] = counters.get("cost_flops", 0.0) / n_ops / 1e9
    out["data.expand_mb"] = counters.get("expand_bytes", 0.0) / n_ops / 1e6
    # Ratios are not per operation.
    out["optimizer.trials_per_iter"] = _ratio(trials, iterations)
    out["optimizer.ls_accept_ratio"] = _ratio(ops.returned.get("optimizer.line_search", 0), trials)
    out["baselines.ae_accept_ratio"] = _ratio(counters.get("ae_iterations", 0.0), ae_trials)
    # gen_toy runs while inputs are set up, so it is read from the traced set-up.
    out["cli.gen_toy_setup_s"] = setup.total.get("cli.gen_toy", 0.0)
    return out
