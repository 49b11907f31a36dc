"""Artificial entanglement profiles of matrices via tensor-train SVD.

The package treats a matrix as a pure state on a chain of prime-sized
sites, computes the Schmidt spectrum at every cut with a sequential SVD
sweep, and compares the resulting entropy profiles against random-matrix
baselines: the Page curve, the Marchenko-Pastur law, the log-scaling
entropy law of softmax attention, and the rank bound that makes low-rank
adapter updates form an entanglement valley.  The singular values of
the attention bulk A - (1/T) 11^T approach the quartercircle law only
when the head width d_qk is much larger than T.  At the default
d_qk = T they do not: their KS distance to it stays near 0.13 from
T = 256 to 1024, with m4 / (2 m2^2) near 1.42 instead of 1.
"""

from __future__ import annotations

from .adapters import (
    AdapterSpec,
    ValleyCheck,
    interior_cut_range,
    lora_update,
    mps_adapter_materialize,
    mps_adapter_update,
    param_count,
    valley_check,
)
from .attention import (
    AttentionScene,
    MaskAblation,
    apply_rope,
    attention_matrix,
    mask_ablation,
    outlier_bulk_split,
    output_operator,
)
from .entropy import (
    CutRecord,
    EntanglementProfile,
    binary_entropy,
    normalize_spectrum,
    page_entropy,
    profile,
    renyi,
    von_neumann,
)
from .errors import (
    AentError,
    DegenerateInputError,
    FormatError,
    InvalidArgumentError,
    ShapeMismatchError,
)
from .experiments import (
    REFERENCE_ADAPTER_SPECS,
    ExperimentReport,
    adapter_count_rows,
    attn_experiment,
    cardy_experiment,
    collapse_experiment,
    collapse_spectrum,
    mp_compare,
    page_bench,
    valley_experiment,
)
from .matrixfile import read_matrix, write_matrix
from .mps import MpsChain, SchmidtSpectrum, cut_spectrum, decompose, reconstruct
from .rmt import (
    CardyFit,
    CollapseReport,
    EntropyBounds,
    MarchenkoPastur,
    Moments,
    cardy_fit,
    empirical_moments,
    entropy_bounds,
    estimate_sigma2,
    ks_distance,
    mp_density,
    mp_support,
    output_collapse_check,
    sample_gaussian_matrix,
    stable_rank,
)
from .tensorize import SiteLayout, prime_factorize, tensorize
from .version import __version__

__all__ = [
    "AdapterSpec",
    "AentError",
    "AttentionScene",
    "CardyFit",
    "CollapseReport",
    "CutRecord",
    "DegenerateInputError",
    "EntanglementProfile",
    "EntropyBounds",
    "ExperimentReport",
    "FormatError",
    "InvalidArgumentError",
    "MarchenkoPastur",
    "MaskAblation",
    "Moments",
    "MpsChain",
    "REFERENCE_ADAPTER_SPECS",
    "SchmidtSpectrum",
    "ShapeMismatchError",
    "SiteLayout",
    "ValleyCheck",
    "adapter_count_rows",
    "attn_experiment",
    "apply_rope",
    "attention_matrix",
    "binary_entropy",
    "cardy_experiment",
    "cardy_fit",
    "collapse_experiment",
    "collapse_spectrum",
    "cut_spectrum",
    "decompose",
    "empirical_moments",
    "entropy_bounds",
    "estimate_sigma2",
    "interior_cut_range",
    "ks_distance",
    "lora_update",
    "mask_ablation",
    "mp_compare",
    "mp_density",
    "mp_support",
    "mps_adapter_materialize",
    "mps_adapter_update",
    "normalize_spectrum",
    "outlier_bulk_split",
    "output_collapse_check",
    "output_operator",
    "page_bench",
    "page_entropy",
    "param_count",
    "prime_factorize",
    "profile",
    "read_matrix",
    "reconstruct",
    "renyi",
    "sample_gaussian_matrix",
    "stable_rank",
    "tensorize",
    "valley_check",
    "valley_experiment",
    "von_neumann",
    "write_matrix",
]
