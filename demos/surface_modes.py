"""
Surface-theory matrix modes
===========================

The surface coefficient matrix ships in two variants.  The consistent mode
uses block weights 2i/N - 1/2 and reproduces its own seed values; the
verbatim mode uses 2i/N and demonstrably does not.  This script shows the
discrepancy on the smallest witness: cyclic order 2, two insertions, genus 2.
"""

from fractions import Fraction

from hhodge import SURFACE, StackyType

x = StackyType(2, (2,))
g = 2
a = SURFACE.seed_exponent(g, x)
gamma = (Fraction(1), Fraction(1))

print(f"type N={x.N}, n={list(x.n)}, genus {g}: seed exponent a = {a}")

# the product formula at the defining exponents a*e_j
rows = [SURFACE.theta(g, x, (a, 0), ()), SURFACE.theta(g, x, (0, a), ())]
print("product-formula rows:", rows)

for mode in ("consistent", "verbatim"):
    matrix = SURFACE.build_matrix(x, a, mode)
    scaled = SURFACE.scale_matrix(matrix, g, x, a)
    residuals = [
        SURFACE.reproduction_residual(g, x, j, gamma, mode) for j in range(x.total)
    ]
    print(f"{mode}: scaled rows {scaled}")
    print(f"{mode}: seed-reproduction residuals {residuals}")

# consistent mode matches the product formula row for row; verbatim is off
# by a fixed -1/3 per unit of seed value on this witness
assert SURFACE.reproduction_residual(g, x, 0, gamma, "consistent") == 0
assert SURFACE.reproduction_residual(g, x, 0, gamma, "verbatim") == Fraction(-1, 3)
print("witness confirmed: verbatim misses its seeds by -1/3")
