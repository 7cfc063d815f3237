"""GNS construction, standard form, and the two-sided group action.

From a positive definite function on S_k the GNS construction gives a
unitary representation with a cyclic vector reproducing the state.
Putting the generated von Neumann algebra in standard form yields the
modular conjugation J v = U conj(v), U the unitary polar factor of the
matrix of the adjoint map S, and pi(g) J pi(h) J^-1 then implements
commuting left and right actions on the same space. Both factors are
homomorphisms once they multiply along every link g -> g t_i of the
adjacent transpositions t_i = (i i+1), and they commute once their
generators do.
"""

import numpy as np

from stablerep.fourier import StateFunction
from stablerep.gns import (
    biregular,
    central_support,
    gns,
    gns_standard_pipeline,
)
from stablerep.permutations import symmetric_group, transposition
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
    triple, algebra, sf = gns_standard_pipeline(k, as_table(state, k))
    print("\ncanonical state at level 3:")
    print("  carrier dimension:", triple.dimension)
    print("  generated algebra dimension:", len(algebra))
    # J^2 v = U conj(U conj(v)) = U conj(U) v
    print("  || J^2 - I || =", np.linalg.norm(sf.j @ sf.j.conj() - np.eye(sf.dimension)))

    bireg = biregular(sf, triple.rep)
    gens = [transposition(i, i + 1) for i in range(1, k)]
    print("  both factors multiply along every link g -> g t_i:",
          all(np.allclose(rho[g * t], rho[g] @ rho[t], atol=1e-10)
              for rho in (bireg.pi, bireg.right)
              for g in symmetric_group(k) for t in gens))
    print("  left/right generators commute:",
          all(np.allclose(bireg.pi[s] @ bireg.right[t], bireg.right[t] @ bireg.pi[s], atol=1e-10)
              for s in gens for t in gens))
    s, t = gens
    print("  diagonal pair implements conjugation:",
          np.allclose(
              bireg.ad(s) @ bireg.pi[t] @ np.linalg.inv(bireg.ad(s)),
              bireg.pi[s * t * s],
              atol=1e-10,
          ))

    support = central_support(triple.rep, k)
    print("  irreducibles carrying the representation:", sorted(support))


if __name__ == "__main__":
    main()
