"""How far a state is from being central beyond each cut.

defect(m) measures, in the dual norm at truncation K, how much the
state moves under conjugation by generators supported above m.  For a
canonical state of depth n the profile drops to exactly zero at m = n,
which is how the depth is read off in practice.
"""

from fractions import Fraction as F

from stablerep.canonical import CanonicalState
from stablerep.stability import centrality_defect, stability_profile
from stablerep.thoma import ThomaParams, thoma_character


def main():
    params = ThomaParams(alpha=(F(1, 2), F(1, 3)))
    f = CanonicalState(3, (2, 1), params)
    profile = stability_profile(f, K=6, M=5)
    print("profile of a depth-3 state (truncation K=6):")
    print(profile.to_csv())
    # note the zero at m=0: probes there sit inside S_3, where the
    # character factor is a class function; only cut-crossing
    # conjugators move this state, and the first of those appears at m=1

    print("single-cut defect at the true depth:", centrality_defect(f, 3, K=6))
    print("one step early:                     ", centrality_defect(f, 2, K=6))

    # a pure parameter character is conjugation invariant everywhere
    g = lambda s: float(thoma_character(params, s.cycle_type()))
    profile = stability_profile(g, K=5, M=3)
    print("\nprofile of the bare parameter character:")
    print(profile.to_csv())

    # exhaustive sweep over all conjugators inside a finite window
    # agrees with the generator probes on where the defect vanishes
    profile = stability_profile(f, K=5, M=3, exhaustive=True)
    print("exhaustive-conjugator profile (level-5 window):")
    for point in profile.points:
        print(f"  m={point.m}  defect={point.defect:.6f}  witness={point.witness}")


if __name__ == "__main__":
    main()
