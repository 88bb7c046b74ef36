"""Fourier calculus on discrete groups with balanced-truncation inequality scans.

The library covers group algebras of finite abelian products, trigonometric
polynomials on the torus, free groups and free products of cyclic groups;
length cocycles with explicit orthonormal bases and exact Gromov forms; the
derivative / Riesz-transform / truncation multiplier calculus; Lp, Schatten
and square-function norms; and a deterministic experiment harness for the
balanced truncation-average inequalities.
"""

from .groups import (GroupDescriptor, GroupAlgebraElement, DualEvaluation,
                     evaluate_on_dual, fourier_coefficients, convolve, adjoint,
                     trace, project_mean_zero, is_mean_zero, random_group_elements)
from .words import (ReducedWord, EMPTY_WORD, reduce, word_length, inverse,
                    concat, leq_free, predecessor, meet, derivative_set_member,
                    enumerate_words)
from .cocycles import (BasisVector, LengthCocycle, build_cocycle,
                       weighted_hypercube, gromov_form, gromov_form_defining,
                       gromov_bilinear, gram_matrix, completeness_defect,
                       conditional_negativity_check)
from .operators import (GradientVector, directional_derivative,
                        gradient, absorbent_derivative, walsh_derivative,
                        laplacian_power, heat_semigroup, riesz_transform,
                        truncate, adjoint_truncation, project_AS,
                        free_hilbert_transform)
from .norms import (NumericalSanityError, lp_norm, lp_norm_abelian,
                    lp_norm_torus_even, lp_norm_torus_grid, schatten_norm,
                    schatten_powers, square_function_norm, sign_patterns)
from .harness import (RatioReport, EnsembleSpec, naor_ratio,
                      naor_profile, xp_linear_profile, xp_linear_ratio,
                      rosenthal_linear_ratio,
                      moment_checks, riesz_equivalence_ratio, scan,
                      reevaluate_witness, sample_element)

__version__ = "0.1.0"
