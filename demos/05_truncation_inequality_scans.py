#!/usr/bin/env python3
"""Balanced truncation averages: the inequality experiments end to end.

For a mean-zero f and 1 <= k <= n, the harness compares the average of
||E_S f||_p^p over k-subsets S against (k/n) * sum_j (derivative term)_j +
(k/n)^{p/2} ||f||_p^p.  The constants are implicit, so experiments record
empirical ratios; only the p = 2 closures are exact.
"""

import numpy as np

from xpchaos import (EnsembleSpec, GroupAlgebraElement, GroupDescriptor,
                     build_cocycle, moment_checks, naor_profile, naor_ratio,
                     reevaluate_witness, rosenthal_linear_ratio, sample_element,
                     scan, xp_linear_ratio)

# -- a pinned single-character example -------------------------------------------

cube = GroupDescriptor.hypercube(3)
cocycle = build_cocycle("cyclic_word", cube)
rademacher = GroupAlgebraElement.lam(cube, (1, 0, 0))
report = naor_ratio(rademacher, cocycle, p=2, k=3, derivative="walsh")
print(f"single Walsh character, k=n: lhs={report.lhs}, rhs={report.rhs}, "
      f"ratio={report.ratio}")

# -- the ratio profile across k ----------------------------------------------------

rng = np.random.default_rng(0)
f = sample_element(cube, cocycle, EnsembleSpec("gaussian"), rng)
profile = naor_profile(f, cocycle, ps=[2, 4], ks=[1, 2, 3], derivative="walsh")
for p in (2, 4):
    ratios = {k: round(lhs / rhs, 4) for k, (lhs, rhs) in profile[p].items()}
    print(f"p={p} ratios by k:", ratios)

# -- deterministic ensemble scans -----------------------------------------------------

scan_report = scan("naor", EnsembleSpec("sparse", sparsity=6), trials=200, seed=42,
                   n=8, ps=[2, 4], ks=list(range(1, 9)), derivative="absorbent",
                   family="hypercube")
print(f"hypercube scan n=8: max ratio {scan_report.ratio:.4f} "
      f"({scan_report.trials} trials, seed {scan_report.seed})")
rerun = reevaluate_witness(scan_report)
print("witness reproduces its ratio:",
      abs(rerun["ratio"] - scan_report.ratio) < 1e-9)

# A weighted sweep illustrates that uniform weights give the best constant
# scaling: heavier axes inflate the derivative terms through alpha_j / min alpha.
for weights in ([1.0, 1.0, 1.0], [1.0, 2.0, 4.0], [1.0, 4.0, 16.0]):
    wc = build_cocycle("weighted_cube", cube, weights)
    g = sample_element(cube, wc, EnsembleSpec("gaussian"), np.random.default_rng(5))
    r = naor_ratio(g, wc, p=4, k=2, derivative="gradient")
    print(f"weights {weights}: ratio {r.ratio:.6f}")

# -- the matrix and scalar linear models -----------------------------------------------

mats = [(np.random.default_rng(j).standard_normal((4, 4))
         + 1j * np.random.default_rng(100 + j).standard_normal((4, 4))) / np.sqrt(2)
        for j in range(6)]
xp = xp_linear_ratio(mats, p=4, k=3)
print(f"matrix model n=6, k=3, p=4: ratio {xp.ratio:.4f}")

scalar = rosenthal_linear_ratio([1, 0, 0, 0], p=4, k=2)
print(f"scalar model, basis vector: lhs^p = {scalar.lhs ** 4:.6f} (= k/n = 0.5)")

moments = moment_checks(4, 2, 4)
print("sign-subset moments:", moments["sigma_moment"], moments["square_moment"],
      "exact:", moments["passed"])
