"""
Line-theory calculator walkthrough
==================================

Evaluates descendant integrals for the smallest interesting stacky type:
cyclic order 2 with two weight-1/2 insertions at genus 1.  Shows the defining
linear system, its exact solution, and the recursion the values satisfy.
"""

from fractions import Fraction

from hhodge import LINE, IntegralSpec, StackyType, extract_line_initial

x = StackyType(2, (2,))
g = 1

# the common defining exponent; integer exactly because the type is admissible
a = LINE.seed_exponent(g, x)
print(f"type N={x.N}, n={list(x.n)}, genus {g}: seed exponent a = {a}")

# the defining system: block weights off-diagonal, a on the diagonal
matrix = LINE.build_matrix(x, a)
print("matrix:", matrix)
print("det:", LINE.det(x, a))

# after row scaling, row j equals the product formula at exponents a*e_j
scaled = LINE.scale_matrix(matrix, g, x, a)
print("scaled:", scaled)

# seed the system with the series-derived one-point initial value
gamma = (extract_line_initial(2, g), extract_line_initial(2, g))
print("gamma:", gamma)

# the solved integrals reproduce their seeds exactly
for j in range(x.total):
    assert LINE.reproduction_residual(g, x, j, gamma) == 0
print("seed reproduction: exact at every position")

# a few descendant values at other exponents; the last sits off the
# dimension gate and vanishes for that reason alone
for k, l in [((1, 0), ()), ((0, 1), ()), ((0, 0), (2,)), ((0, 0), (1,))]:
    spec = IntegralSpec(g, l, k)
    value = LINE.integral(g, x, spec, gamma)
    print(f"  k={k}, l={l}: {value}")

# the recursion residual vanishes identically, term by exact term
spec = IntegralSpec(g, (1,), (0, 0))
residual = LINE.recursion_residual(g, x, spec, 1, gamma)
assert residual == Fraction(0)
print("recursion residual:", residual)
