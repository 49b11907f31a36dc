"""Artificial entanglement profiles of matrices via tensor trains.

The package treats a matrix as a pure state on a chain of prime-sized
sites, takes the Schmidt spectrum at every cut from per-cut Gram spectra
with an exact-SVD fallback (a sequential Gram/SVD sweep under a bond cap), and
compares the entropy profiles against random-matrix baselines: the Page
curve, the Marchenko-Pastur law, the log-scaling entropy law of softmax
attention, and the rank bound that makes low-rank adapter updates form an
entanglement valley.
"""

from __future__ import annotations

from .adapters import (
    AdapterSpec,
    ValleyCheck,
    mps_adapter_materialize,
    param_count,
    valley_check,
)
from .attention import (
    AttentionScene,
    MaskAblation,
    mask_ablation,
    output_operator,
)
from .entropy import (
    CutRecord,
    EntanglementProfile,
    binary_entropy,
    normalize_spectrum,
    page_entropy,
    profile,
    spectrum_entropies,
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
from .mps import MpsChain, decompose, reconstruct
from .rmt import (
    CardyFit,
    CollapseReport,
    EntropyBounds,
    MarchenkoPastur,
    cardy_fit,
    entropy_bounds,
    estimate_sigma2,
    ks_distance,
    output_collapse_check,
    sample_gaussian_matrix,
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
    "MpsChain",
    "REFERENCE_ADAPTER_SPECS",
    "ShapeMismatchError",
    "SiteLayout",
    "ValleyCheck",
    "adapter_count_rows",
    "attn_experiment",
    "binary_entropy",
    "cardy_experiment",
    "cardy_fit",
    "collapse_experiment",
    "collapse_spectrum",
    "decompose",
    "entropy_bounds",
    "estimate_sigma2",
    "ks_distance",
    "mask_ablation",
    "mp_compare",
    "mps_adapter_materialize",
    "normalize_spectrum",
    "output_collapse_check",
    "output_operator",
    "page_bench",
    "page_entropy",
    "param_count",
    "prime_factorize",
    "profile",
    "read_matrix",
    "reconstruct",
    "sample_gaussian_matrix",
    "spectrum_entropies",
    "tensorize",
    "valley_check",
    "valley_experiment",
    "write_matrix",
]
