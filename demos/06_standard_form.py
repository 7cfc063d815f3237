"""GNS construction, standard form, and the two-sided group action.

From a positive definite function on S_k the GNS construction gives a
unitary representation with a cyclic vector reproducing the state.
The standard form of the generated von Neumann algebra M is the GNS
triple of a faithful state of M composed with the representation, so
its carrier has the dimension of M. It carries the modular conjugation
J v = U conj(v), U the unitary polar factor of the matrix of the adjoint
map S, and pi(g) J pi(h) J^-1 then implements commuting left and right
actions on the same space. gns_certificate checks each property once:
both factors are homomorphisms once they multiply along every link
g -> g t_i of the adjacent transpositions t_i = (i i+1), and then
J M J^-1 lies in the commutant M' once the generators pi(t_i) and
J pi(t_j) J^-1 commute.
"""

from stablerep.fourier import StateFunction
from stablerep.gns import gns, gns_certificate
from stablerep.permutations import symmetric_group
from stablerep.stability import as_table
from stablerep.canonical import CanonicalState
from stablerep.thoma import ThomaParams
from fractions import Fraction as F


def main():
    k = 3
    # the point mass at e generates the (left) regular representation
    triple = gns(k, StateFunction.delta(k))
    print("GNS of the point mass: dimension", triple.dimension,
          f"(= {k}! = {len(symmetric_group(k))})")

    state = CanonicalState(2, (1, 1), ThomaParams(alpha=(F(1, 2), F(1, 2))))
    cert = gns_certificate(k, as_table(state, k))
    print("\ncanonical state at level 3:")
    print("  carrier dimension:", cert["gns_dim"])
    print("  generated algebra dimension (the standard form's carrier):",
          cert["algebra_dim"])
    # J^2 v = U conj(U conj(v)) = U conj(U) v, measured on doubled real coordinates
    print("  || J^2 - I || =", cert["j_squared_residual"])
    print("  both factors multiply along every link g -> g t_i to",
          cert["homomorphism_residual"])
    print("  their generators commute, so J M J^-1 lies in the commutant M', to",
          cert["j_commutant_residual"])
    print("  diagonal pairs implement conjugation to", cert["ad_residual"])
    print("  irreducibles carrying the representation:", cert["central_support"])


if __name__ == "__main__":
    main()
