"""A tour of the divisor-function algebra.

Run:  python demos/divisor_algebra.py
"""

from math import comb

from sumsystems import (
    associated_divisor,
    big_omega,
    classical_divisor,
    divisors,
    factorise,
    mobius,
    nontrivial_divisor,
    squarefree_ordered_count,
)

n = 360
pf = factorise(n)
print(f"{n} = " + " * ".join(f"{p}^{e}" for p, e in pf.factors))
print(f"Omega({n}) = {pf.big_omega} prime factors with multiplicity")
print()

# d_j counts ordered factorisations into j positive factors (1 allowed);
# d_2 is the everyday number-of-divisors function
print("classical divisor functions at", n)
for j in range(1, 5):
    print(f"  d_{j}({n}) = {classical_divisor(j, n)}")
print()

# c_j insists every factor is at least 2, so it dies beyond Omega(n)
print("non-trivial counterparts at", n)
for j in range(1, big_omega(n) + 2):
    print(f"  c_{j}({n}) = {nontrivial_divisor(j, n)}")
print()

# the two families are binomial transforms of one another in j:
# d_j = sum of C(j, i) c_i, and inverting, c_j = sum of (-1)^(j-i) C(j, i) d_i
ds = [classical_divisor(j, n) for j in range(6)]
cs = [nontrivial_divisor(j, n) for j in range(6)]
inverted = [sum((-1) ** (j - i) * comb(j, i) * ds[i] for i in range(j + 1)) for j in range(6)]
print("binomial inversion of", ds)
print("             recovers", inverted)
assert inverted == cs
assert ds == [sum(comb(j, i) * cs[i] for i in range(j + 1)) for j in range(6)]
print()

# c_j^(r) appends r unconstrained factors; negative r convolves with
# Mobius powers instead and the three-term recurrence ties them together
print("associated functions at 12:")
for j, r in ((2, 0), (2, 1), (2, -2), (3, -3)):
    print(f"  c_{j}^({r})(12) = {associated_divisor(j, r, 12)}")
for k in range(3):
    lhs = associated_divisor(k + 1, -1, 12)
    rhs = associated_divisor(k, 0, 12) - associated_divisor(k, -1, 12)
    assert lhs == rhs
print("three-term recurrence checked for k = 0, 1, 2 at n = 12")
print()

# Mobius inverts the constant-one function under Dirichlet convolution:
# (mu * 1)(k), the sum of mu over the divisors of k, is e(k)
assert all(sum(mobius(d) for d in divisors(k)) == (k == 1) for k in range(1, 2000))
print("mu * 1 = e checked for n < 2000", f"(mu(12) = {mobius(12)})")
print()

# signed counts of ordered square-free factorisations drive the counting
print("square-free ordered factorisation counts (signed), n = 12:")
for length in range(4):
    print(f"  length {length}: {squarefree_ordered_count(length, 12)}")
print("length 2 is -2: the factorisations are 2*6 and 6*2, and the sign")
print("is negative because 12 has three prime factors but only two parts")
