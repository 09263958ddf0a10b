"""The 8x8 solve chain and the seeded search harnesses, end to end.

Run:  python3 demos/search_walkthrough.py
"""

from fractions import Fraction

from eulermagic import (
    FAMILY_LEFT,
    RIGHT_VARS,
    MultiPoly,
    SearchConfig,
    diag_forms,
    eliminate_w,
    improper_witnesses,
    search5_cayley,
    search8_seeded,
    solve_chain,
)


def linear_form(vec):
    """An integer vector over p..w as the linear polynomial it holds."""
    return MultiPoly(RIGHT_VARS, {tuple(int(k == i) for k in range(8)): c
                                  for i, c in enumerate(vec)})


def main() -> None:
    print("== why some left tuples can never work ==")
    for w in improper_witnesses((1,) * 8):
        print(f"  all-ones witness: m{w.first} {w.relation} m{w.second} = "
              f"{linear_form(w.form)}")
    print("  -> A factors through those forms, so Euler magic forces a collision")

    print()
    print("== the degree-one restriction and the solve chain ==")
    # term tables hold (*exponents over p..w, coefficient): w's exponent is term[-2]
    a_table, b_table = diag_forms(FAMILY_LEFT)
    print("left", FAMILY_LEFT, "gives w-degrees",
          max(term[-2] for term in a_table), "and", max(term[-2] for term in b_table))
    f_table = eliminate_w((a_table, b_table))[0]
    print("eliminated cubic has p-degree", max(term[0] for term in f_table))
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
