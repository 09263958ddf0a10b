"""Why there is no 3x3 Euler magic matrix over the rationals.

Every rational orthogonal matrix without eigenvalue -1 is a Cayley transform
(I - S)(I + S)^(-1) of a skew-symmetric S, and scaling/sign-flips reduce the
general 3x3 Euler magic question to that chart.  Clearing the denominator
Delta = a^2 + b^2 + c^2 + 1 turns the two diagonal conditions into integer
polynomials D and E in the three skew parameters; four exact identities then
squeeze D = E = 0 down to requiring sqrt(3) to be rational.

Run:  python3 demos/three_by_three_certificate.py
"""

from fractions import Fraction

from eulermagic import cayley, cayley3_forms, cli, inverse_cayley, skew_from_upper


def main() -> None:
    print("== the two cleared diagonal conditions ==")
    d_form, e_form = cayley3_forms()
    print("D =", d_form)
    print("E =", e_form)

    print()
    print("== identity certificate ==")
    cli.main(["prove3"])  # the certificate as `eulermagic prove3` prints it

    print()
    print("== the Cayley chart itself, on a sample point ==")
    s = skew_from_upper(3, [Fraction(1, 2), Fraction(-2, 3), Fraction(4)])
    m = cayley(s)
    print("cayley(S) rows:")
    for row in m.entries:
        print("  ", " ".join(str(v) for v in row))
    back = inverse_cayley(m)
    print("inverse_cayley recovers S:", back.entries == s.entries)


if __name__ == "__main__":
    main()
