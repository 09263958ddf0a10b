"""The 8x8 solve chain and the seeded search harnesses, end to end.

Run:  python3 demos/search_walkthrough.py
"""

from fractions import Fraction

from eulermagic import (
    FAMILY_LEFT,
    SearchConfig,
    diag_forms,
    eliminate_w,
    improper_witnesses,
    search5_cayley,
    search8_seeded,
    solve_chain,
)


def main() -> None:
    print("== why some left tuples can never work ==")
    for w in improper_witnesses((1,) * 8):
        print(f"  all-ones witness: m{w.first} {w.relation} m{w.second} = {w.form}")
    print("  -> A factors through those forms, so Euler magic forces a collision")

    print()
    print("== the degree-one restriction and the solve chain ==")
    forms = diag_forms(FAMILY_LEFT)
    print("left", FAMILY_LEFT, "gives w-degrees",
          forms.A.degree_in("w"), "and", forms.B.degree_in("w"))
    f_poly, x, y = eliminate_w(forms)
    print("eliminated cubic has p-degree", f_poly.degree_in("p"))
    result = solve_chain(FAMILY_LEFT, {"q": -55, "r": -11, "t": -27, "u": -13})
    print("chain solved", result.solved_for, "->",
          tuple(str(v) for v in result.right))
    print("gamma", result.report.gamma, "proper", result.report.is_proper)

    print()
    print("== seeded 8x8 pipeline ==")
    left = (0, 1, 1, 1, 1, 1, -1, 5)
    partial = (3, -2, -4, 5, 6)
    supplied = (Fraction(13, 15), Fraction(-14, 15), Fraction(-23, 5))
    res = search8_seeded(left, partial, supplied=supplied,
                         height=1, center=supplied[:2])
    print(f"grid points + supplied: {res.iterations}, hits: {res.hits}, "
          f"best score: {res.best_score}")
    best = res.candidates[0]
    print("best candidate right tuple:", tuple(str(v) for v in best.source_params))

    print()
    print("== seeded random 5x5 Cayley search ==")
    cfg = SearchConfig(seed=6, numerator_bound=3, denominator_bound=2,
                       max_iterations=1500)
    res5 = search5_cayley(cfg, workers=2)
    print(f"iterations {res5.iterations}: hits {res5.hits}, "
          f"near misses {res5.near_misses} (one diagonal condition held)")
    print("exact hits are rare at desk scale; the harness reports them")
    print("deterministically when they occur.")


if __name__ == "__main__":
    main()
