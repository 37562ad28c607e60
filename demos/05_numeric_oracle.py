"""The floating-point oracle: explicit matrix models against symbolic reports.

The same block datum becomes an explicit matrix model -- the invariant form,
the antilinear structure, the center as honest block-scalar matrices. The
oracle then recovers the weight decomposition numerically: an orthonormal
basis of the ambient algebra, the adjoint action of the center in Kronecker
form, every weight space from one Hermitian eigendecomposition of a random
combination of the ad matrices, and eigenvalue counts of the Hermitian Gram
matrices of Trace(sigma(X) X'). Agreement with the exact side is a genuine
cross-check of the closed-form weight and signature rules. The report also
says how far each accepted quantity sits from its tolerance.
"""

import random

from liebalance import blocks, groups
from liebalance.groups import Family
from liebalance.oracle import (CLUSTER_TOL, EXACT_TOL, GRAM_TOL, SIGMA_TOL,
                               brute_force_roots, compare_reports,
                               synthesize_model)
from liebalance.randomgen import random_scenario
from liebalance.roots import root_system

spec = groups.so_star(6)
data = [blocks.imag_pair(1, 1, (1, 0)), blocks.zero_block(4, (2, 2))]
system = root_system(spec, data)
model = synthesize_model(system)

print(f"model of a {spec.describe()} datum: ambient dimension {model.n}")
print(f"  tau matrix with tau^2 = {model.eta} * id; invariant bilinear form;")
print(f"  center spanned by {len(model.centers)} block-scalar matrix")
print()

report = brute_force_roots(system, model, seed=1)
print("numeric weight report (adjoint):")
for w in report.adjoint:
    val = ", ".join(f"{v:.3f}" for v in w.value)
    sig = f"  signature {w.signature}" if w.signature else ""
    print(f"  value ({val})  dim {w.dim}{sig}")
print(f"  zero weight space: dim {report.zero_dim}")
print(f"  algebra dimension: {report.dim_g} "
      f"(closed form: {spec.dim_complexified})")
print(f"  sigma equivariance of weight spaces: {report.sigma_equivariant}")
print("diagnostics (value, then the tolerance it must respect):")
print(f"  smallest gap between eigenvalue clusters {report.min_cluster_gap:.3e}"
      f"  (>= {100 * CLUSTER_TOL:.0e})")
print(f"  largest normality residual of ad        {report.max_normality_residual:.3e}"
      f"  (<= {EXACT_TOL:.0e})")
print(f"  largest Hermitian residual of a Gram    {report.max_gram_residual:.3e}"
      f"  (<= {GRAM_TOL:.0e})")
print(f"  largest sigma residual off target space {report.max_sigma_residual:.3e}"
      f"  (<= {SIGMA_TOL:.0e})")
print()

problems = compare_reports(system, report)
print("symbolic vs numeric:", "agree" if not problems else problems)
print()

print("Randomized agreement across all ten families")
print("--------------------------------------------")
rng = random.Random(7)
for fam in Family:
    spec, data = random_scenario(fam, rng)
    system = root_system(spec, data)
    model = synthesize_model(system)
    report = brute_force_roots(system, model, seed=rng.randint(0, 10 ** 6))
    problems = compare_reports(system, report)
    print(f"  {spec.describe():<12} ambient {model.n:>2}, "
          f"{len(report.adjoint):>2} nonzero weights: "
          f"{'agree' if not problems else problems[:2]}")
