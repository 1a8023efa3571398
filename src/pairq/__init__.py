"""Query-aware vector compression.

Learns a linear transform from a query sample so that standard product
quantizers, trained on the transformed vectors, minimize the error of
scalar-product or squared-distance estimates against that query
distribution rather than plain reconstruction error. Ships the quantizers,
the lookup-table estimators with optional bias correction, model
serialization, and a benchmark harness.
"""

from .datasets import (
    SyntheticData,
    SyntheticSpec,
    gen_synthetic,
    read_fvecs,
    read_ivecs,
    second_moment_condition,
    write_fvecs,
    write_ivecs,
)
from .estimator import (
    BiasCorrected,
    MseTable,
    adc_scan,
    build_lut_scalar,
    build_lut_sqdist,
    compute_mse_table,
)
from .experiment import (
    CellResult,
    ExperimentConfig,
    Report,
    run_experiment,
    write_report_csv,
    write_report_json,
)
from .linalg import SymEig, procrustes, psd_sqrt, pseudo_inverse, sym_eig
from .metrics import (
    EvalStats,
    estimate_batch,
    eval_bias,
    eval_relative_dist_error,
    eval_scalar_mse,
    evaluate_method,
    true_values,
)
from .quantizer import (
    KMeansResult,
    OPQModel,
    PQCodebook,
    assign,
    kmeans,
    opq_decode,
    opq_encode,
    pq_decode,
    pq_encode,
    reconstruction_error,
    train_opq,
    train_pq,
)
from .serialize import load_model, save_model
from .transform import (
    PairQModel,
    PairTransform,
    learn_scalar_transform,
    learn_sqdist_transform,
    lift_point,
    pairq_encode,
    pairq_estimate_scalar,
    pairq_estimate_sqdist,
    pairq_query_vector,
    train_pairq,
    transform_database,
)

__version__ = "0.1.0"

__all__ = [
    "SymEig", "sym_eig", "psd_sqrt", "pseudo_inverse", "procrustes",
    "KMeansResult", "kmeans", "assign",
    "PQCodebook", "train_pq", "pq_encode", "pq_decode",
    "OPQModel", "train_opq", "opq_encode", "opq_decode",
    "reconstruction_error",
    "PairTransform", "learn_scalar_transform", "learn_sqdist_transform",
    "lift_point", "transform_database",
    "PairQModel", "train_pairq", "pairq_encode", "pairq_query_vector",
    "pairq_estimate_scalar", "pairq_estimate_sqdist",
    "build_lut_scalar", "build_lut_sqdist", "adc_scan",
    "MseTable", "compute_mse_table", "BiasCorrected",
    "read_fvecs", "write_fvecs", "read_ivecs", "write_ivecs",
    "SyntheticSpec", "SyntheticData", "gen_synthetic",
    "second_moment_condition",
    "EvalStats", "evaluate_method", "estimate_batch", "true_values",
    "eval_scalar_mse", "eval_relative_dist_error", "eval_bias",
    "ExperimentConfig", "CellResult", "Report", "run_experiment",
    "write_report_csv", "write_report_json",
    "load_model", "save_model",
    "__version__",
]
