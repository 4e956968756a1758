"""Fourier-Bessel expansions, semigroup kernels, maximal operators, and
atomic Hardy-space decompositions on the unit interval and the half line,
with desk-scale numerical verification of the kernel estimates and norm
equivalences that connect them."""

from .basis import EigenBasis, coefficients
from .config import RunConfig, load_config
from .covers import DyadicCover, Interval, FAMILY_ONE_END, FAMILY_TWO_END
from .errors import ConfigError, NumericsError
from .hardy import (Atom, PiecewiseLinear, atomic_decompose, build_partition,
                    cascade_decompose, chord_product, h1_norm_report,
                    haar_atom, random_atoms, special_atom, two_atom_split,
                    validate_atom)
from .kernels import (UnitIntervalKernels, bessel_heat, bessel_poisson,
                      check_sharp_estimate)
from .maximal import (CutoffRho, SpectralExpansion, TimeGrid, apply_halfline,
                      compare_semigroups, duhamel_closure, maximal_function,
                      uchiyama_families, uchiyama_kernel)
from .quadrature import (Grid, Measure, SampledFunction, grid_on_interval,
                         make_quadrature, MEASURE_LEBESGUE, MEASURE_MU)
from .specfun import Order, bessel_zeros

__version__ = "0.1.0"

__all__ = [
    "Atom", "ConfigError", "CutoffRho", "DyadicCover", "EigenBasis",
    "FAMILY_ONE_END", "FAMILY_TWO_END", "Grid", "Interval",
    "MEASURE_LEBESGUE", "MEASURE_MU", "Measure", "NumericsError", "Order",
    "PiecewiseLinear", "RunConfig", "SampledFunction", "SpectralExpansion",
    "TimeGrid", "UnitIntervalKernels", "apply_halfline", "atomic_decompose",
    "bessel_heat", "bessel_poisson",
    "bessel_zeros", "build_partition", "cascade_decompose",
    "check_sharp_estimate", "chord_product",
    "coefficients", "compare_semigroups", "duhamel_closure",
    "grid_on_interval", "h1_norm_report", "haar_atom", "load_config",
    "make_quadrature", "maximal_function", "random_atoms",
    "special_atom", "two_atom_split", "uchiyama_families", "uchiyama_kernel",
    "validate_atom",
]
