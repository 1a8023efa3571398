"""Which pairq functions the traced run wraps, and the per-layer metrics
derived from their spans.

Names are ``<module>.<function>`` for spans and ``<module>.<quantity>``
for metrics, with the module names of ``src/pairq``.
"""

from __future__ import annotations

import os

import numpy as np

MODULES = (
    "datasets", "linalg", "transform", "quantizer", "estimator",
    "metrics", "serialize", "experiment", "cli",
)


def _kmeans(tracer, span, args, kwargs, result):
    tracer.counts["lloyd_iters"] += len(result.trace)
    tracer.counts["blocks"] += 1
    tracer.counts["converged_blocks"] += int(result.converged)


def _train_opq(tracer, span, args, kwargs, result):
    # The trace holds the objective after the initial fit and after each
    # rotation update.
    tracer.counts["opq_outer_iters"] += len(result.trace) - 1


def _adc_scan(tracer, span, args, kwargs, result):
    tracer.counts["adc_scan_pairs"] += int(np.size(result))


def _estimate_batch(tracer, span, args, kwargs, result):
    kind = type(args[0]).__name__
    span.tag = {"PairQModel": "pairq", "BiasCorrected": "opq-bc"}.get(kind, "opq")


def _evaluate_method(tracer, span, args, kwargs, result):
    queries, database = args[2], args[3]
    tracer.counts["pairs_evaluated"] += result.num_pairs
    tracer.counts["pairs_possible"] += len(queries) * len(database)


def _save_model(tracer, span, args, kwargs, result):
    tracer.counts["model_bytes"] += os.path.getsize(args[0])


def _run_experiment(tracer, span, args, kwargs, result):
    tracer.counts["cells_attempted"] += len(result.cells)
    tracer.counts["cells_failed"] += sum(c.error is not None for c in result.cells)


TARGETS = {
    "datasets.gen_synthetic": None,
    "datasets.read_fvecs": None,
    "datasets.write_fvecs": None,
    "datasets.read_ivecs": None,
    "datasets.write_ivecs": None,
    "linalg.psd_sqrt": None,
    "linalg.pseudo_inverse": None,
    "linalg.procrustes": None,
    "transform.learn_scalar_transform": None,
    "transform.learn_sqdist_transform": None,
    "transform.transform_database": None,
    "transform.train_pairq": None,
    "transform.pairq_encode": None,
    "transform.pairq_query_vector": None,
    "quantizer.kmeans": _kmeans,
    "quantizer.train_pq": None,
    "quantizer.train_opq": _train_opq,
    "quantizer.pq_encode": None,
    "quantizer.pq_decode": None,
    "quantizer.opq_encode": None,
    "quantizer.opq_decode": None,
    "estimator.build_lut_scalar": None,
    "estimator.build_lut_sqdist": None,
    "estimator.adc_scan": _adc_scan,
    "estimator.compute_mse_table": None,
    "metrics.estimate_batch": _estimate_batch,
    "metrics.true_values": None,
    "metrics.evaluate_method": _evaluate_method,
    "serialize.save_model": _save_model,
    "serialize.load_model": None,
    "experiment.run_experiment": _run_experiment,
    "experiment.write_report_csv": None,
    "experiment.write_report_json": None,
    "cli.main": None,
}

# name -> (unit, better), in the order the traced run prints them. Counts
# that only describe the work done are marked "higher".
PER_LAYER = {
    "datasets.gen_synthetic_s": ("s", "lower"),
    "datasets.self_s": ("s", "lower"),
    "linalg.psd_sqrt_ms": ("ms", "lower"),
    "linalg.pseudo_inverse_ms": ("ms", "lower"),
    "linalg.procrustes_ms": ("ms", "lower"),
    "linalg.procrustes_calls": ("count", "higher"),
    "linalg.self_s": ("s", "lower"),
    "transform.learn_transform_ms": ("ms", "lower"),
    "transform.transform_database_ms": ("ms", "lower"),
    "transform.train_pairq_self_ms": ("ms", "lower"),
    "transform.pairq_query_vector_us": ("us", "lower"),
    "transform.self_s": ("s", "lower"),
    "quantizer.kmeans_s": ("s", "lower"),
    "quantizer.train_opq_self_s": ("s", "lower"),
    "quantizer.pq_encode_ms_per_call": ("ms", "lower"),
    "quantizer.pq_encode_calls": ("count", "lower"),
    "quantizer.pq_decode_ms": ("ms", "lower"),
    "quantizer.lloyd_iters": ("count", "higher"),
    "quantizer.opq_outer_iters": ("count", "higher"),
    "quantizer.converged_blocks": ("count", "higher"),
    "quantizer.blocks": ("count", "higher"),
    "quantizer.self_s": ("s", "lower"),
    "estimator.build_lut_us": ("us", "lower"),
    "estimator.adc_scan_ms_per_call": ("ms", "lower"),
    "estimator.adc_scan_pairs_per_call": ("count", "higher"),
    "estimator.compute_mse_table_ms": ("ms", "lower"),
    "estimator.self_s": ("s", "lower"),
    "metrics.estimate_batch_self_ms.opq": ("ms", "lower"),
    "metrics.estimate_batch_self_ms.opq-bc": ("ms", "lower"),
    "metrics.estimate_batch_self_ms.pairq": ("ms", "lower"),
    "metrics.true_values_ms": ("ms", "lower"),
    "metrics.evaluate_method_s": ("s", "lower"),
    "metrics.pairs_evaluated": ("count", "higher"),
    "metrics.pairs_possible": ("count", "higher"),
    "metrics.self_s": ("s", "lower"),
    "serialize.save_model_ms": ("ms", "lower"),
    "serialize.load_model_ms": ("ms", "lower"),
    "serialize.model_bytes": ("bytes", "lower"),
    "serialize.self_s": ("s", "lower"),
    "experiment.run_experiment_self_s": ("s", "lower"),
    "experiment.cells_attempted": ("count", "higher"),
    "experiment.cells_failed": ("count", "lower"),
    "experiment.self_s": ("s", "lower"),
    "cli.main_self_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.bookkeeping_ms": ("ms", "lower"),
    "trace.spans": ("count", "higher"),
}


def layer_metrics(tracer, traced_s: float) -> dict[str, float]:
    """Per-layer values from one traced pass.

    ``traced_s`` is the pass's summed phase time. Tracing overhead is the
    tracer's measured cost as a share of that time without it: a gap
    between a traced and an untraced pass would be dominated by the
    machine's drift between them.
    """
    by_name, by_tag = tracer.totals()

    def calls(name):
        return by_name[name][0] if name in by_name else 0

    def total(*names):
        return sum(by_name[n][1] for n in names if n in by_name)

    def own(name):
        return by_name[name][2] if name in by_name else 0.0

    def per_call(*names):
        n = sum(calls(x) for x in names)
        return total(*names) / n if n else 0.0

    def module_self(module):
        return sum(row[2] for name, row in by_name.items() if name.startswith(module + "."))

    def tagged_self_per_call(name, tag):
        row = by_tag.get((name, tag))
        return row[2] / row[0] if row else 0.0

    counts = tracer.counts
    saves = calls("serialize.save_model")
    values = {
        "datasets.gen_synthetic_s": total("datasets.gen_synthetic"),
        "linalg.psd_sqrt_ms": 1e3 * total("linalg.psd_sqrt"),
        "linalg.pseudo_inverse_ms": 1e3 * total("linalg.pseudo_inverse"),
        "linalg.procrustes_ms": 1e3 * total("linalg.procrustes"),
        "linalg.procrustes_calls": calls("linalg.procrustes"),
        "transform.learn_transform_ms": 1e3 * total(
            "transform.learn_scalar_transform", "transform.learn_sqdist_transform"
        ),
        "transform.transform_database_ms": 1e3 * total("transform.transform_database"),
        "transform.train_pairq_self_ms": 1e3 * own("transform.train_pairq"),
        "transform.pairq_query_vector_us": 1e6 * per_call("transform.pairq_query_vector"),
        "quantizer.kmeans_s": total("quantizer.kmeans"),
        "quantizer.train_opq_self_s": own("quantizer.train_opq"),
        "quantizer.pq_encode_ms_per_call": 1e3 * per_call("quantizer.pq_encode"),
        "quantizer.pq_encode_calls": calls("quantizer.pq_encode"),
        "quantizer.pq_decode_ms": 1e3 * total("quantizer.pq_decode"),
        "quantizer.lloyd_iters": counts["lloyd_iters"],
        "quantizer.opq_outer_iters": counts["opq_outer_iters"],
        "quantizer.converged_blocks": counts["converged_blocks"],
        "quantizer.blocks": counts["blocks"],
        "estimator.build_lut_us": 1e6 * per_call(
            "estimator.build_lut_scalar", "estimator.build_lut_sqdist"
        ),
        "estimator.adc_scan_ms_per_call": 1e3 * per_call("estimator.adc_scan"),
        "estimator.adc_scan_pairs_per_call": (
            counts["adc_scan_pairs"] / calls("estimator.adc_scan")
            if calls("estimator.adc_scan") else 0.0
        ),
        "estimator.compute_mse_table_ms": 1e3 * total("estimator.compute_mse_table"),
        "metrics.true_values_ms": 1e3 * total("metrics.true_values"),
        "metrics.evaluate_method_s": total("metrics.evaluate_method"),
        "metrics.pairs_evaluated": counts["pairs_evaluated"],
        "metrics.pairs_possible": counts["pairs_possible"],
        "serialize.save_model_ms": 1e3 * per_call("serialize.save_model"),
        "serialize.load_model_ms": 1e3 * per_call("serialize.load_model"),
        "serialize.model_bytes": counts["model_bytes"] / saves if saves else 0.0,
        "experiment.run_experiment_self_s": own("experiment.run_experiment"),
        "experiment.cells_attempted": counts["cells_attempted"],
        "experiment.cells_failed": counts["cells_failed"],
        "cli.main_self_s": own("cli.main"),
        "trace.overhead_pct": 100.0 * tracer.bookkeeping_s / (traced_s - tracer.bookkeeping_s),
        "trace.bookkeeping_ms": 1e3 * tracer.bookkeeping_s,
        "trace.spans": len(tracer.spans),
    }
    for method in ("opq", "opq-bc", "pairq"):
        values[f"metrics.estimate_batch_self_ms.{method}"] = 1e3 * tagged_self_per_call(
            "metrics.estimate_batch", method
        )
    for module in MODULES[:-1]:
        values[f"{module}.self_s"] = module_self(module)
    return {name: values[name] for name in PER_LAYER}
