"""GNS construction, standard form, and the two-sided group action.

From a positive definite function on S_k the GNS construction gives a
unitary representation with a cyclic vector reproducing the state.
Putting the generated von Neumann algebra in standard form yields the
modular conjugation J, and pi(g) J pi(h) J then implements commuting
left and right actions on the same space.
"""

import numpy as np

from stablerep.fourier import StateFunction
from stablerep.gns import (
    biregular,
    central_support,
    gns,
    gns_standard_pipeline,
)
from stablerep.permutations import cycle, symmetric_group, transposition
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
    two_n = sf.j_real.shape[0]
    print("  || J^2 - I || =", np.linalg.norm(sf.j_real @ sf.j_real - np.eye(two_n)))

    bireg = biregular(sf, triple.rep)
    g, h = transposition(1, 2), cycle(1, 2, 3)
    left, right = bireg(g, h.inverse() * h), bireg(g * g.inverse(), h)
    print("  left/right actions commute:",
          np.allclose(left @ right, right @ left, atol=1e-10))
    print("  diagonal pair implements conjugation:",
          np.allclose(
              bireg.ad(g) @ bireg.pi[h] @ np.linalg.inv(bireg.ad(g)),
              bireg.pi[g * h * g.inverse()],
              atol=1e-10,
          ))

    support = central_support(triple.rep, k)
    print("  irreducibles carrying the representation:", sorted(support))


if __name__ == "__main__":
    main()
