#!/usr/bin/env python3
"""The multiplier calculus: derivatives, Laplacians, heat flow, Riesz transforms.

All operators act coefficient-wise.  The directional derivatives square-sum to
-4 pi^2 times the Laplacian, Riesz symbols square-sum to 4 pi^2, and at p = 2
the Riesz square function reproduces the norm exactly after dividing by 2 pi.
"""

import math

import numpy as np

from xpchaos import (EnsembleSpec, GroupAlgebraElement, GroupDescriptor,
                     build_cocycle, riesz_equivalence_ratio, sample_element)
from xpchaos.cocycles import BasisVector
from xpchaos.operators import (absorbent_derivative, directional_derivative,
                               gradient, heat_semigroup, laplacian_power,
                               riesz_transform, truncate)

torus = GroupDescriptor.torus(2, 6)
euclid = build_cocycle("euclidean", torus)
word = build_cocycle("torus_word", torus)

# -- coordinate derivatives ------------------------------------------------------

f = GroupAlgebraElement.lam(torus, (3, 4))
d1 = directional_derivative(f, BasisVector("euclidean", j=1), euclid)
print("d/dx_1 of e^{2 pi i (3x + 4y)}:", d1.coeffs, "(= 2 pi i * 3)")

# The word-length cocycle pays one unit per lattice edge: lambda((2, 0)) sees
# exactly the edge vectors u_1(1), u_1(2).
grad = gradient(GroupAlgebraElement.lam(torus, (2, 0)), 1, word)
print("gradient components along axis 1:", [u.to_id() for u, _ in grad.components])

# -- Laplacian and heat flow -------------------------------------------------------

print("Laplacian symbol at (3, 4):",
      laplacian_power(f, 1.0, euclid).coeffs[(3, 4)].real, "(= 9 + 16)")
cooled = heat_semigroup(f, 1.0, euclid)
print("heat semigroup damping at t=1:", abs(cooled.coeffs[(3, 4)]), "= e^{-25}?",
      math.isclose(abs(cooled.coeffs[(3, 4)]), math.exp(-25)))

# -- Riesz transforms ---------------------------------------------------------------

r1 = riesz_transform(f, BasisVector("euclidean", j=1), euclid)
print("Riesz transform R_1 at (3,4):", r1.coeffs[(3, 4)], "(= 2 pi i * 3/5)")

# Symbol normalization: summing |2 pi <beta(g), u> / sqrt(psi)|^2 over the
# (finitely many) contributing directions always gives 4 pi^2.
z4 = GroupDescriptor.finite_abelian([4, 4])
cyc = build_cocycle("cyclic_word", z4)
g = (3, 2)
basis = cyc.basis_for_support([g])
total = sum(abs(2 * math.pi * cyc.pairing(g, u)) ** 2 / cyc.psi(g) for u in basis)
print(f"Riesz normalization at {g}: {total:.12f} vs {4 * math.pi ** 2:.12f}")

# Truncations commute with Riesz transforms up to the component filter.
rng = np.random.default_rng(7)
f4 = sample_element(z4, cyc, EnsembleSpec("gaussian"), rng)
u = BasisVector("z2m", j=1, ell=1)
left = riesz_transform(truncate(f4, (2,)), u, cyc)
print("R_u E_S = 0 when the direction leaves S:", not left.coeffs)

# -- the dimension-free equivalence at p = 2 ------------------------------------------

for p in (2, 4, 6):
    ratio = riesz_equivalence_ratio(f4, p, cyc).ratio
    print(f"norm / (Riesz square function / 2 pi) at p={p}: {ratio:.6f}")

# -- absorbent derivatives -------------------------------------------------------------
# The 0/1 projections delta_{g_j != 0} absorb every directional derivative of
# their slice, giving the strongest truncation-average inequality.

print("absorbent derivative is idempotent:",
      absorbent_derivative(absorbent_derivative(f4, 1), 1) == absorbent_derivative(f4, 1))
