"""Count sum systems four ways and watch the answers agree.

Run:  python demos/counting_walkthrough.py
"""

from sumsystems import (
    brute_force_count,
    count_by_recurrence,
    count_for_tuple,
    count_m_part,
    count_two_part,
    count_unordered,
    divisor_sum_check,
    two_dim_fixed_tuple,
)

# ordered m-part counts for small N: closed form vs exhaustive search
print(" N   m=1  m=2  m=3   brute agrees")
for n in (8, 12, 16, 24, 32):
    row = [count_m_part(n, m).value for m in (1, 2, 3)]
    same = all(brute_force_count(n, m).value == row[m - 1] for m in (1, 2, 3))
    print(f"{n:>3}  {row[0]:>4} {row[1]:>4} {row[2]:>4}   {same}")
print()

# two independent closed forms for the two-part case
for n in (12, 360, 4096):
    a = count_m_part(n, 2).value
    b = count_two_part(n).value
    assert a == b
    print(f"two-part count of {n}: {a} (Stirling route) = {b} (divisor route)")
print()

# the recurrence over proper divisors rebuilds the same numbers from N = 1
r = count_by_recurrence(24, 3)
print(f"recurrence count for N = 24, m = 3: {r.value} via {r.method}")
print()

# the Stirling sum itself counts systems up to the order of their parts;
# the ordered count is m! times it
for n, m in ((12, 2), (24, 3), (16, 4)):
    print(f"unordered {m}-part count of {n}: {count_unordered(n, m).value}")
print()

# the count of 12 splits over proper divisors d as sums of smaller counts;
# the report carries one residual per identity, all of which must be zero
report = divisor_sum_check(12, 2)
print("divisor-sum residuals at N = 12, m = 2:", report.as_dict()["residuals"])
print()

# fixing the cardinality tuple (n, n) rather than the product N = n^2
# is a finer count: for n = 4 the tuple (2, 8) also multiplies to 16
for n in (2, 3, 4, 6):
    fixed = two_dim_fixed_tuple(n).value
    assert 2 * fixed == count_for_tuple((n, n))
    print(f"unordered systems with both parts of size {n}: {fixed}")
print()
print(f"all two-part systems with N = 16: {count_m_part(16, 2).value}")
print(f"  of which tuple (4, 4): {count_for_tuple((4, 4))}")
print(f"  and tuples (2, 8), (8, 2): {count_for_tuple((2, 8))} each")
