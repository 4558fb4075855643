"""Deterministic identification over Gaussian and fading channels.

The package splits into construction (``galois``, ``rs``, ``codebook``,
``packing``), channel simulation (``fading``, ``channel``), verification
(``decoder``), rate analysis (``bounds``), and the experiment harness
(``harness``).  Everything here is importable straight from the top
level; the ``dicode`` console script fronts the same machinery.

Importing dicode before numpy starts OpenBLAS with one thread, unless
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is set.
dicode's matrix products are small (encoding baby steps, one Gram
matrix per packing book) and the trial loop runs its own ``workers``
threads.  A BLAS thread pool gains nothing on such products, while its
idle threads spin between calls and take cores from the trial workers.
On a two-vCPU Xeon VM the pool added 0.1 s to the import, made one
120 x 4096 Gram matrix take 0.09 s instead of 0.01 s, and spread the
wall times of repeated n = 15625 encodes five times wider.
"""

import os as _os

if not any(v in _os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                      "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .bounds import (
    RateReport,
    di_rate,
    inv_norm_cdf,
    min_distance_lower_bound,
    rate_report,
    shannon_ergodic_capacity,
    shannon_outage_capacity,
    sphere_packing_rate,
)
from .channel import Awgn, FastFading, SlowFading, parse_channel, transmit
from .codebook import (
    AmplitudeAlphabet,
    ConcatCodebook,
    ConcatParams,
    export_codewords_csv,
    guaranteed_distance,
    load_params_json,
    plan_params,
    write_params_json,
)
from .decoder import (
    ACCEPT,
    OUTAGE,
    REJECT,
    CsiFast,
    CsiSlow,
    DecisionStatistic,
    NoCsi,
    impostor_moments,
    nocsi_threshold,
    threshold_csi,
    verify_csi_fast,
    verify_csi_slow,
    verify_nocsi,
)
from .errors import DegenerateFadingError, InfeasibleError, QuadratureError, ValidationFailure
from .fading import (
    Constant,
    DiscreteMixture,
    FadingMoments,
    Nakagami,
    Rayleigh,
    Rician,
    parse_distribution,
    quantile_abs,
)
from .galois import FieldContext, ExtensionContext, make_extension, make_field
from .harness import (
    ArrayCodebook,
    ExperimentConfig,
    MomentGridConfig,
    MomentReport,
    TrialReport,
    build_codebook,
    moment_validation,
    run_experiment,
    wilson_interval,
    write_text_atomic,
)
from .packing import (
    PROFILES,
    ExpurgationReport,
    PackingSpec,
    ProjectionReport,
    check_projection_property,
    generate_expurgated,
    verify_packing,
)
from .rs import RSCode

__version__ = "0.1.0"

__all__ = [
    "ACCEPT",
    "OUTAGE",
    "PROFILES",
    "REJECT",
    "AmplitudeAlphabet",
    "ArrayCodebook",
    "Awgn",
    "ConcatCodebook",
    "ConcatParams",
    "Constant",
    "CsiFast",
    "CsiSlow",
    "DecisionStatistic",
    "DegenerateFadingError",
    "DiscreteMixture",
    "ExperimentConfig",
    "ExpurgationReport",
    "ExtensionContext",
    "FadingMoments",
    "FastFading",
    "FieldContext",
    "InfeasibleError",
    "MomentGridConfig",
    "MomentReport",
    "Nakagami",
    "NoCsi",
    "PackingSpec",
    "ProjectionReport",
    "QuadratureError",
    "RSCode",
    "RateReport",
    "Rayleigh",
    "Rician",
    "SlowFading",
    "TrialReport",
    "ValidationFailure",
    "build_codebook",
    "check_projection_property",
    "di_rate",
    "export_codewords_csv",
    "generate_expurgated",
    "guaranteed_distance",
    "impostor_moments",
    "inv_norm_cdf",
    "load_params_json",
    "make_extension",
    "make_field",
    "min_distance_lower_bound",
    "moment_validation",
    "nocsi_threshold",
    "parse_channel",
    "parse_distribution",
    "plan_params",
    "quantile_abs",
    "rate_report",
    "run_experiment",
    "shannon_ergodic_capacity",
    "shannon_outage_capacity",
    "sphere_packing_rate",
    "threshold_csi",
    "transmit",
    "verify_csi_fast",
    "verify_csi_slow",
    "verify_nocsi",
    "verify_packing",
    "wilson_interval",
    "write_params_json",
    "write_text_atomic",
]
