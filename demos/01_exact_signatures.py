"""Exact signatures of Hermitian forms by congruence diagonalization.

Everything runs over the Gaussian rationals: no eigenvalues, no rounding.
Sylvester's law of inertia makes the inertia counts independent of the
eliminations performed, which we exercise by conjugating with random
invertible rational matrices.
"""

import random
from fractions import Fraction

from liebalance.exact import GaussianRational, I, gmat, signature_of
from liebalance.linalg import conj_transpose, matmul, rank

print("A definite form, a split form, and the tautological pairing")
print("------------------------------------------------------------")
print("identity 3x3:           ", signature_of(gmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
print("diag(1,-1):             ", signature_of(gmat([[1, 0], [0, -1]])))
taut = gmat([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
print("pairing W x W*, dim 2:  ", signature_of(taut), " (vanishing, as it must be)")

print()
print("Purely off-diagonal Hermitian matrices need hyperbolic pivots:")
m = gmat([[0, I], [-I, 0]])
print("[[0, i], [-i, 0]]:      ", signature_of(m))

print()
print("Congruence invariance on a random form")
print("--------------------------------------")
rng = random.Random(1)
base = gmat([[2, 1, 0], [1, -1, 3], [0, 3, 0]])
sig = signature_of(base)
print("signature:", sig)
for trial in range(3):
    while True:
        a = [[GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                               Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
              for _ in range(3)] for _ in range(3)]
        if rank(a) == 3:
            break
    assert signature_of(matmul(conj_transpose(a), matmul(base, a))) == sig
    print(f"  random congruence {trial + 1}: unchanged")

print()
print("Induced forms on spaces of bilinear forms")
print("-----------------------------------------")
print("For a form of signature s on an n-dim space, the induced form on")
print("all bilinear forms has signature s^2; on symmetric ones (s^2+n)/2;")
print("on alternating ones (s^2-n)/2. Checked exhaustively by the test")
print("suite; here is n = 3, s = 1 by direct construction:")

n, p = 3, 2
diag = [Fraction(1)] * p + [Fraction(-1)] * (n - p)
dinv = [1 / d for d in diag]
basis = [(i, j) for i in range(n) for j in range(n)]
gram = [[GaussianRational(dinv[i] * dinv[j]) if (i, j) == (k, l) else GaussianRational(0)
         for (k, l) in basis] for (i, j) in basis]
full = signature_of(gram)
print(f"  all forms:  {full}  (value {full.value} = s^2 = 1)")
