"""Inducing from a product subgroup and reading off the branching.

The character of S_n x S_{n+1..m} given by chi_lam on the first factor
and a parameter character on the second induces up to S_m.  The
Frobenius formula gives its value on each class from the class
functions of the two factors; inner products with the irreducible
characters give integer multiplicities, the Littlewood-Richardson
numbers.
"""

from stablerep.induction import decompose_induced, induced_character
from stablerep.partitions import hook_dimension


def main():
    m = 5
    lam, mu = (2, 1), (2,)
    print(f"inducing chi_{lam} x chi_{mu} from S_3 x S_(4..5) to S_{m}")

    values = induced_character(3, lam, mu, m)
    print("\ninduced character values by class:")
    for nu, val in values.items():
        print(f"  {str(nu):>18} {val}")

    decomp = decompose_induced(3, lam, mu, m)
    print("\nirreducible multiplicities:")
    for nu, c in decomp.items():
        print(f"  {str(nu):>18} x{c}")

    dim_left = hook_dimension(lam) * hook_dimension(mu)
    dim_ind = sum(c * hook_dimension(nu) for nu, c in decomp.items())
    print("\ndimension check: index * dim =", 10 * dim_left, " decomposition:", dim_ind)

    # one-row mu: the multiplicities are 0/1 along horizontal strips
    print("\nPieri case, mu = (2):")
    for nu, c in decompose_induced(2, (1, 1), (2,), 4).items():
        print(f"  {str(nu):>18} x{c}")


if __name__ == "__main__":
    main()
