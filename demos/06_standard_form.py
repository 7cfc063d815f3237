"""GNS construction and standard form, block by block.

From a positive definite function f on S_k the GNS construction gives a
unitary representation with a cyclic vector reproducing the state. On a
finite group it is a sum of irreducibles: rho_lam enters r_lam times,
r_lam the rank of the Fourier block of f at lam, and the cyclic vector
is one d_lam x r_lam matrix xi_lam per block. The algebra M it generates
is the sum of the full matrix algebras M_{d_lam} with r_lam > 0, and its
standard form is M acting on itself with J X = X^H: there J^2 = 1,
J M J^-1 = M' and the ad relation hold by construction. gns_certificate
checks what can fail: the Coxeter relations of each rho_lam, and that
the blocks give the state back.
"""

import numpy as np

from stablerep.fourier import StateFunction
from stablerep.gns import gns, gns_certificate, gns_standard_pipeline
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
    print("  r_lam per shape:", {lam: x.shape[1] for lam, x in triple.blocks.items()})

    state = CanonicalState(2, (1, 1), ThomaParams(alpha=(F(1, 2), F(1, 2))))
    f = as_table(state, k)
    cert = gns_certificate(k, f)
    print("\ncanonical state at level 3:")
    print("  carrier dimension:", cert["gns_dim"])
    print("  generated algebra dimension (the standard form's carrier):",
          cert["algebra_dim"])
    print("  irreducibles carrying the representation:", cert["central_support"])
    print("  Coxeter relations of each rho_lam hold to", cert["homomorphism_residual"])
    print("  <xi, pi(g) xi> gives f(g) back to", cert["state_residual"])
    # J X = X^H on the dense carrier: J^2 = j conj(j) = 1 exactly
    _, sf = gns_standard_pipeline(k, f)
    print("  J^2 = 1 on the standard form:", np.array_equal(sf.j @ sf.j.conj(), np.eye(sf.dimension)))


if __name__ == "__main__":
    main()
