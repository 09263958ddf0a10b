"""Command-line front end.

Subcommands: verify, family, prove3, perm, search5, search8, forms.  Every
subcommand is a thin adapter over the library, which returns records; no
arithmetic lives here, and every rendering does: this module builds each
text and JSON form the command prints.

Exit codes: 0 success (or verified true), 1 verified false (input was read
fine but the matrix is not Euler magic / an identity failed), 2 usage or
input errors, 141 stdout closed by its reader.  main is the one place that
turns the library's bad-input error, ValueError, into exit 2; any other
exception, such as the RuntimeError of a failed internal check, propagates.  Randomized subcommands
require an explicit --seed so runs are reproducible by construction.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence, Union

from .certificates import nonexistence_certificate
from .family8 import diag_forms, eliminate_w, four_parameter_family, w1_check
from .matrices import (
    _UNSIGNED_RATIONAL,
    _format_entry,
    format_matrix_text,
    parse_matrix_text,
    parse_rational,
)
from .permutations import MAX_PERM_SIZE, construction_permutation, perm_matrix
from .search import MAX_HEIGHT, SearchConfig, search5_cayley, search8_seeded
from .verify import verify

__all__ = ["main"]


def _fraction(text: str) -> Union[int, Fraction]:
    try:
        return parse_rational(text)
    except ValueError as exc:  # parse_rational's message, which echoes no overlong token
        raise argparse.ArgumentTypeError(str(exc)) from exc


# lets negative rationals like -14/15 pass as argument values, not options
_NEGATIVE_RATIONAL = re.compile(rf"^-(?:{_UNSIGNED_RATIONAL})$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_RATIONAL


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eulermagic",
        description="Exact construction, verification, and search for Euler's magic matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_verify = sub.add_parser("verify", help="verify a matrix file against the three conditions")
    p_verify.add_argument("path", help="matrix file (whitespace-separated rationals; # comments)")
    p_verify.add_argument("--json", action="store_true", help="machine-readable report")

    p_family = sub.add_parser("family", help="evaluate the four-parameter proper family")
    for name in ("q", "r", "t", "u"):
        p_family.add_argument(name, type=_fraction)
    p_family.add_argument("--json", action="store_true")

    p_prove3 = sub.add_parser(
        "prove3", help="print the 3x3 nonexistence certificate (polynomial identities)")
    p_prove3.add_argument("--json", action="store_true")

    p_perm = sub.add_parser(
        "perm", help=f"permutation construction for 4 <= n <= {MAX_PERM_SIZE}")
    p_perm.add_argument("n", type=int)
    p_perm.add_argument("--json", action="store_true")

    p_s5 = sub.add_parser("search5", help="seeded random 5x5 Cayley search (JSON lines)")
    p_s5.add_argument("--seed", type=int, required=True)
    p_s5.add_argument("--iterations", type=int, default=1000)
    p_s5.add_argument("--numerator-bound", type=int, default=120)
    p_s5.add_argument("--denominator-bound", type=int, default=8)
    p_s5.add_argument("--workers", type=int, default=1)

    p_s8 = sub.add_parser(
        "search8", help="8x8 pipeline: fixed left tuple and (p..t), solve for (u,v,w) (JSON lines)")
    p_s8.add_argument("--left", type=int, nargs=8, required=True, metavar="L")
    p_s8.add_argument("--partial", type=_fraction, nargs=5, required=True, metavar="P")
    p_s8.add_argument("--solution", type=_fraction, nargs=3, metavar="S",
                      help="candidate (u, v, w) to verify exactly")
    p_s8.add_argument("--height", type=int, default=0,
                      help=f"bounded-height (u, v) grid radius, at most {MAX_HEIGHT} "
                           "(about 1.5 * H^4 grid points); 0 disables")
    p_s8.add_argument("--center", type=_fraction, nargs=2, metavar="C",
                      help="grid center (default 0 0)")
    p_s8.add_argument("--workers", type=int, default=1)

    p_forms = sub.add_parser(
        "forms", help="print the diagonal quadratic forms A and B for a left tuple")
    p_forms.add_argument("left", type=int, nargs=8, metavar="L")
    p_forms.add_argument("--json", action="store_true")

    return parser


def _canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _rows(matrix) -> list:
    return [[_format_entry(x) for x in row] for row in matrix.entries]


def _pairs(duplicate_pairs) -> list:
    """1-based ((i, j), (k, l)) position pairs as [[i, j], [k, l]] lists."""
    return [[list(p), list(q)] for p, q in duplicate_pairs]


def _matrix_json(matrix) -> dict:
    return {"rows": matrix.rows, "cols": matrix.cols, "entries": _rows(matrix)}


def _report_json(report) -> dict:
    return {
        "n": report.n,
        "gamma": _format_entry(report.gamma),
        "orthogonal": report.cond_orthogonal,
        "diagonal": report.cond_diagonal,
        "antidiagonal": report.cond_antidiagonal,
        "euler_magic": report.is_euler_magic,
        "proper": report.is_proper,
        "distinct_squares": report.distinct_square_count,
        "duplicates": _pairs(report.duplicate_pairs),
    }


def _report_text(report) -> str:
    """The JSON report's fields in order, one "key: value" line each, with
    booleans as true/false and the duplicates as JSON."""
    d = _report_json(report)
    duplicates = d.pop("duplicates")
    lines = [f"{key}: {str(value).lower() if isinstance(value, bool) else value}"
             for key, value in d.items()]
    return "\n".join(lines + [f"duplicates: {json.dumps(duplicates)}"])


def _family_json(args, result) -> dict:
    return {
        "params": {
            "q": str(args.q),
            "r": str(args.r),
            "t": str(args.t),
            "u": str(args.u),
        },
        "X": str(result.x_value),
        "right": [str(v) for v in result.right],
        "matrix": _rows(result.primitive),
        "report": _report_json(result.report),
    }


def _certificate_json(lines) -> list:
    return [line._asdict() for line in lines]


def _certificate_text(lines) -> str:
    out = []
    for ln in lines:
        if ln.status == "AXIOM":
            out.append(f"{ln.name}: AXIOM")
        else:
            out.append(f"{ln.name}: {ln.status} (difference terms: {ln.lhs_minus_rhs_term_count})")
    return "\n".join(out)


def _candidate_json(candidate) -> dict:
    return {
        "sample_index": candidate.sample_index,
        "source_params": [str(x) for x in candidate.source_params],
        "matrix": _rows(candidate.matrix),
        "gamma": str(candidate.gamma),
        "score": candidate.score,
        "duplicates": _pairs(candidate.duplicates),
    }


def _summary_json(result) -> dict:
    return {
        "summary": True,
        "iterations": result.iterations,
        "hits": result.hits,
        "near_misses": result.near_misses,
        "best_score": result.best_score,
    }


def _show(args, payload, text: str) -> None:
    """Print the payload as canonical JSON under --json, else the text."""
    print(_canonical_json(payload) if args.json else text)


def _cmd_verify(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.path}: {exc}") from None
    report = verify(parse_matrix_text(text))
    _show(args, _report_json(report), _report_text(report))
    return 0 if report.is_euler_magic else 1


def _cmd_family(args) -> int:
    result = four_parameter_family(args.q, args.r, args.t, args.u)
    _show(args, _family_json(args, result), "\n".join([
        f"X: {result.x_value}",
        "right: " + " ".join(str(v) for v in result.right),
        format_matrix_text(result.primitive),
        _report_text(result.report),
    ]))
    return 0


def _cmd_prove3(args) -> int:
    lines = nonexistence_certificate()
    _show(args, _certificate_json(lines), _certificate_text(lines))
    return 0 if all(line.status in ("PASS", "AXIOM") for line in lines) else 1


def _cmd_perm(args) -> int:
    sigma = construction_permutation(args.n)
    matrix = perm_matrix(sigma)
    report = verify(matrix)
    _show(args, {
        "images": list(sigma.images),
        "matrix": _matrix_json(matrix),
        "report": _report_json(report),
    }, "\n".join([
        "images: " + " ".join(str(i) for i in sigma.images),
        format_matrix_text(matrix),
        _report_text(report),
    ]))
    return 0 if report.is_euler_magic else 1


def _emit_search(result) -> None:
    for candidate in result.candidates:
        print(_canonical_json(_candidate_json(candidate)))
    print(_canonical_json(_summary_json(result)))


def _cmd_search5(args) -> int:
    config = SearchConfig(
        seed=args.seed,
        numerator_bound=args.numerator_bound,
        denominator_bound=args.denominator_bound,
        max_iterations=args.iterations,
    )
    _emit_search(search5_cayley(config, workers=args.workers))
    return 0


def _cmd_search8(args) -> int:
    _emit_search(search8_seeded(
        args.left,
        args.partial,
        supplied=args.solution,
        height=args.height,
        center=tuple(args.center) if args.center else None,
        workers=args.workers,
    ))
    return 0


def _cmd_forms(args) -> int:
    forms = diag_forms(args.left)
    payload = {
        "left": list(args.left),
        "A": str(forms.A),
        "B": str(forms.B),
        "degree_one_restriction": w1_check(args.left),
    }
    if payload["degree_one_restriction"]:
        f, x, y = eliminate_w(forms)
        payload.update(x=str(x), y=str(y), F=str(f))
    _show(args, payload, "\n".join(
        f"{key}: {payload[key]}" for key in ("A", "B", "x", "y", "F") if key in payload))
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "family": _cmd_family,
    "prove3": _cmd_prove3,
    "perm": _cmd_perm,
    "search5": _cmd_search5,
    "search8": _cmd_search8,
    "forms": _cmd_forms,
}


def _int_digit_limit(limit: int) -> int:
    """Set the interpreter's int <-> str digit limit (0: none) and return the
    old one; interpreters before 3.10.7 have no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return 0
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    return old


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)  # argparse's int() keeps the limit
    # a result may have more digits than the limit allows, and parse_rational
    # caps every number read, so the handler runs without it
    limit = _int_digit_limit(0)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at exit
        return code
    except ValueError as exc:  # the library's bad-input error; internal faults propagate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # what is left in the buffer goes to devnull at exit, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a reader's early exit
    finally:
        _int_digit_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
