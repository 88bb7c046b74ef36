#!/usr/bin/env python3
"""Length cocycles: Gromov forms, Schoenberg kernels, orthonormal bases.

Each built-in length function carries two independent Gromov-form routes (a
closed form and the defining half-difference), a positive-semidefiniteness
certificate via heat kernels, and an explicit orthonormal basis whose Gram
matrix and completeness sums are exact integers.
"""

import itertools

import numpy as np

from xpchaos import (GroupDescriptor, build_cocycle, completeness_defect,
                     conditional_negativity_check, enumerate_words,
                     gram_matrix, gromov_form, gromov_form_defining,
                     weighted_hypercube)
from xpchaos.cocycles import BasisVector
from xpchaos.groups import random_group_elements

# -- closed form vs defining form ---------------------------------------------

word = build_cocycle("torus_word", GroupDescriptor.torus(2, 5))
g, h = (2, 0), (3, 0)
print("word-length Gromov form on Z^2:",
      gromov_form(word, g, h), "=", gromov_form_defining(word, g, h))

free_product = build_cocycle("free_product_word", GroupDescriptor.free_product(2, 4))
sample = list(enumerate_words(2, 3, modulus=4))
mismatches = sum(
    gromov_form(free_product, a, b) != gromov_form_defining(free_product, a, b)
    for a, b in itertools.product(sample, repeat=2))
print(f"free product Z_4 * Z_4: {len(sample)**2} pairs, {mismatches} mismatches")

# -- Schoenberg certification ---------------------------------------------------
# exp(-t psi) kernels must be PSD for every t > 0; a length that dips negative
# off the diagonal fails loudly.

rng = np.random.default_rng(1)
report = conditional_negativity_check(
    word, random_group_elements(word.group, 10, rng), [0.1, 1.0, 10.0])
print("word length PSD check:", report["passed"],
      {t: f"{v:.2e}" for t, v in report["kernel_min_eigenvalues"].items()})

bogus = conditional_negativity_check(
    lambda g: 0 if g == (0,) else -1.0, [(g,) for g in range(5)], [10.0],
    group=GroupDescriptor.finite_abelian([5]))
print("negative 'length' correctly fails:", not bogus["passed"])

# -- orthonormal bases ---------------------------------------------------------
# The edge vectors of the Cayley graph form an exact ONB; the Gram matrix is
# the identity and the squared pairings against beta(g) sum to psi(g).

z4 = build_cocycle("cyclic_word", GroupDescriptor.finite_abelian([4, 4]))
basis = [BasisVector("z2m", j=j, ell=ell) for j in (1, 2) for ell in (1, 2)]
print("Z_4^2 Gram matrix:", gram_matrix(z4, basis))
print("completeness defects:",
      {g: completeness_defect(z4, g) for g in [(1, 0), (2, 3), (3, 3)]})

# -- the weighted hypercube ------------------------------------------------------
# psi(A) = 4 sum_{j in A} alpha_j, gap = 4 min alpha; the basis rescales the
# coordinate directions.

weighted = weighted_hypercube([1.0, 2.0, 0.25])
print("weighted cube psi({1,2}):", weighted.psi((1, 1, 0)), "gap:", weighted.gap)
