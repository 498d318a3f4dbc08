"""Wavelet bases, hierarchical operators, and wave-packet evolution on
measured ultrametric ball trees."""

from .ball_tree import (
    BallSpec,
    BallTree,
    InvalidTreeError,
    TreeSpec,
    build_tree,
    load_tree_spec,
    padic_preset,
    tree_spec_from_dict,
)
from .certify import run_certification
from .evolution import (
    DensePropagator,
    EvolutionConfig,
    LocalizationReport,
    SpacetimeReport,
    WavePacket,
    check_localization,
    evolve_heat,
    evolve_schrodinger,
    evolve_with_potential,
    spacetime_product_check,
)
from .pdo import (
    Spectrum,
    SpectrumVerification,
    SupKernel,
    constant_kernel,
    dense_operator,
    eigenvalue,
    load_kernel,
    make_kernel,
    spectrum,
    verify_spectrum,
    vladimirov_kernel,
)
from .wavelet import Wavelet, WaveletBasis, build_basis, mean

__version__ = "0.1.0"

__all__ = [
    "BallSpec",
    "BallTree",
    "DensePropagator",
    "EvolutionConfig",
    "InvalidTreeError",
    "LocalizationReport",
    "SpacetimeReport",
    "Spectrum",
    "SpectrumVerification",
    "SupKernel",
    "TreeSpec",
    "Wavelet",
    "WaveletBasis",
    "WavePacket",
    "build_basis",
    "build_tree",
    "check_localization",
    "constant_kernel",
    "dense_operator",
    "eigenvalue",
    "evolve_heat",
    "evolve_schrodinger",
    "evolve_with_potential",
    "load_kernel",
    "load_tree_spec",
    "make_kernel",
    "mean",
    "padic_preset",
    "run_certification",
    "spacetime_product_check",
    "spectrum",
    "tree_spec_from_dict",
    "verify_spectrum",
    "vladimirov_kernel",
]
