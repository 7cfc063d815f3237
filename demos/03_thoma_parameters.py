"""Parameter characters: evaluation, factor type, and recovery.

A pair of weakly decreasing sequences (alpha, beta) in (0, 1] with
total mass at most one determines an extreme character of the infinite
symmetric group.  Its value on a k-cycle is the signed power sum
sum(a^k) + (-1)^(k+1) sum(b^k), and the value on any permutation is
the product over its nontrivial cycles.
"""

from fractions import Fraction as F

from stablerep.thoma import ThomaParams, recover_params, thoma_character, type_classify


def main():
    p = ThomaParams(alpha=(F(1, 2), F(1, 4)), beta=(F(1, 8),))
    print("params:", p.to_json(), " total mass:", p.total)
    for k in range(2, 6):
        print(f"  value on a {k}-cycle:", thoma_character(p, (k,)))
    print("  value on type (3, 2):", thoma_character(p, (3, 2)))
    print("  factor type:", type_classify(p).value)

    q = ThomaParams(alpha=(F(1, 2), F(1, 2)))
    print("\nfull-mass params", q.to_json(), "->", type_classify(q).value)

    # plant parameters, keep only the cycle values, and fit them back
    planted = ThomaParams(alpha=(F(2, 5),), beta=(F(1, 5), F(1, 10)))
    values = {k: float(thoma_character(planted, (k,))) for k in range(2, 9)}
    print("\nplanted:", planted.to_json())
    print("observed cycle values:", {k: round(v, 6) for k, v in values.items()})
    result = recover_params(values, support_bounds=(3, 3))
    print("recovered:", result.params.to_json())
    print("residual:", result.residual)

    # inconsistent data is refused rather than silently approximated
    values[5] = 0.9
    result = recover_params(values, support_bounds=(3, 3))
    print("\nafter corrupting the 5-cycle value: residual", f"{result.residual:.3e}",
          " ok:", result.ok())


if __name__ == "__main__":
    main()
