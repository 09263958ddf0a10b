"""Seeded, reproducible search harnesses.

Two search styles share this module:

* a random 5x5 search that samples rational skew-symmetric parameters,
  tests the two diagonal conditions on the diagonals of their Cayley
  transform (read from closed forms, without the full transform), and keeps
  every exact hit, fully transformed and verified, with its score (near
  misses - exactly one condition holding - are counted);
* a deterministic 8x8 pipeline that fixes a left tuple and five of the right
  coefficients, then solves the remaining two quadratic conditions for w over
  a bounded-height grid of (u, v) values, optionally verifying a supplied
  solution first.

Reproducibility contract: the pseudo-random source is xorshift64* (shift
triple 12/25/27, multiplier 0x2545F4914F6CDD1D).  Sample number i of a run
with seed s draws from an independent generator seeded with
(s + (i+1) * 0x9E3779B97F4A7C15) mod 2^64, so partitioning samples across
workers cannot change any stream.  Integers in [lo, hi] are taken by modulo
reduction of the 64-bit output (the modulo bias is negligible for the tiny
spans used here and is fixed by this contract), so a span hi - lo + 1 must
not exceed 2^64: Xorshift64Star.uniform_ints refuses a wider range, and
SearchConfig refuses a numerator bound N with 2N + 1 > 2^64 and a
denominator bound above 2^64.  A sample's 20 integers are drawn in one
pass of the generator step, Xorshift64Star._draws, numerator then denominator
for each of the ten skew parameters.  Candidate lists are merged in (score
descending, sample index ascending) order, which makes output byte-identical
for equal seeds regardless of worker count.  A search returns a SearchResult
record; cli renders its candidates and summary as JSON lines.
"""

from __future__ import annotations

import operator
import os
from fractions import Fraction
from math import isqrt, lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .cayley import _skew_rows, cayley5_diagonals, cayley_integer
from .family8 import (
    _specialised_terms,
    entries_distinct,
    improper_witnesses,
    integer_forms,
    verified_product,
)
from .matrices import Matrix, _SlotRecord, exact_rationals, rescale_primitive
from .verify import VerifyReport, _squares_sum_to, verify

__all__ = [
    "Xorshift64Star",
    "stream_seed",
    "SearchConfig",
    "Candidate",
    "SearchResult",
    "search5_cayley",
    "search8_seeded",
    "MAX_HEIGHT",
]

_SPAN64 = 1 << 64
_MASK64 = _SPAN64 - 1
_MULTIPLIER = 0x2545F4914F6CDD1D
_STREAM_STEP = 0x9E3779B97F4A7C15


class Xorshift64Star:
    """xorshift64* with the documented constants; never yields a zero state.
    Its draws take every bound through operator.index, so a float, Fraction or
    str bound is a TypeError (a bool is 0 or 1); an empty range, or one of more
    than 2^64 integers, is a ValueError."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        if self.state == 0:
            self.state = _STREAM_STEP

    def uniform_ints(self, ranges: Iterable[Tuple[int, int]]) -> List[int]:
        """One draw uniform on [lo, hi] per (lo, hi) of ranges, in order, each by
        modulo reduction of the next 64-bit output (bias fixed by contract).  A
        refused bound or range leaves the state as it was before the call."""
        ranges = [(operator.index(lo), operator.index(hi)) for lo, hi in ranges]
        if any(hi - lo >= _SPAN64 for lo, hi in ranges):
            raise ValueError("range exceeds the generator's 2^64 outputs")
        return self._draws(ranges)

    def _draws(self, ranges: Iterable[Tuple[int, int]]) -> List[int]:
        """uniform_ints on int bounds: the one copy of the generator step."""
        x = self.state
        out = []
        for lo, hi in ranges:
            if lo > hi:
                raise ValueError("empty range")
            x ^= x >> 12
            x ^= (x << 25) & _MASK64
            x ^= x >> 27
            out.append(lo + ((x * _MULTIPLIER) & _MASK64) % (hi - lo + 1))
        self.state = x
        return out

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform on [lo, hi] by modulo reduction (bias fixed by contract)."""
        return self.uniform_ints(((lo, hi),))[0]

    def rational(self, numerator_bound: int, denominator_bound: int) -> Fraction:
        """Numerator uniform in [-N, N], denominator in [1, D], reduced; one checked call."""
        num, den = self.uniform_ints(((-operator.index(numerator_bound), numerator_bound),
                                      (1, denominator_bound)))
        return Fraction(num, den)


def stream_seed(seed: int, index: int) -> int:
    """The per-sample generator seed; independent of how samples are batched."""
    return (seed + (index + 1) * _STREAM_STEP) & _MASK64


class SearchConfig(_SlotRecord):
    __slots__ = ("seed", "numerator_bound", "denominator_bound", "max_iterations")

    def __init__(self, seed: int, numerator_bound: int = 120, denominator_bound: int = 8,
                 max_iterations: int = 1000):
        # operator.index refuses a float or Fraction: the seed, bounds and
        # count are integers
        seed, numerator_bound, denominator_bound, max_iterations = map(
            operator.index, (seed, numerator_bound, denominator_bound, max_iterations))
        if numerator_bound < 1 or denominator_bound < 1:
            raise ValueError("bounds must be at least 1")
        if 2 * numerator_bound + 1 > _SPAN64 or denominator_bound > _SPAN64:
            raise ValueError("bounds exceed the generator's 2^64 outputs: the numerator "
                             "bound must be below 2^63, the denominator bound at most 2^64")
        if max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        self.seed = seed
        self.numerator_bound = numerator_bound
        self.denominator_bound = denominator_bound
        self.max_iterations = max_iterations


class Candidate(NamedTuple):
    sample_index: int
    source_params: Tuple[Fraction, ...]
    matrix: Matrix
    score: int
    duplicates: Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...]
    gamma: Fraction


class SearchResult(NamedTuple):
    candidates: Tuple[Candidate, ...]
    iterations: int
    hits: int
    near_misses: int
    best_score: int
    # 8x8 grid points where A and B both vanish identically in w; not in the JSON summary
    full_lines: int


def _canonical_sign(m: Matrix) -> Matrix:
    """The lexicographically smaller of the matrix and its negation."""
    negated = tuple(tuple(-x for x in row) for row in m.entries)
    if negated < m.entries:
        return Matrix.from_rows([list(r) for r in negated])
    return m


def _make_candidate(index: int, params: Sequence[Fraction], primitive: Matrix,
                    report: VerifyReport) -> Candidate:
    return Candidate(
        sample_index=index,
        source_params=tuple(Fraction(x) for x in params),
        matrix=_canonical_sign(primitive),
        score=report.distinct_square_count,
        duplicates=report.duplicate_pairs,
        gamma=report.gamma,
    )


def _rank(candidates: Iterable[Candidate]) -> Tuple[Candidate, ...]:
    """(score desc, sample index asc), deduplicated by canonical matrix."""
    ordered = sorted(
        candidates,
        key=lambda c: (-c.score, c.sample_index, c.matrix.entries, c.source_params),
    )
    first: Dict[Tuple, Candidate] = {}  # canonical matrix -> its first candidate
    for c in ordered:
        first.setdefault(c.matrix.entries, c)
    return tuple(first.values())


def _merge_parts(parts, iterations: int) -> SearchResult:
    """One result from per-chunk (candidates, near misses, full lines); hits counts every
    candidate before _rank deduplicates, and chunk-order sums keep it worker-independent."""
    candidates = [c for part in parts for c in part[0]]
    ranked, hits = _rank(candidates), len(candidates)
    best = ranked[0].score if ranked else 0
    return SearchResult(ranked, iterations, hits, sum(p[1] for p in parts), best,
                        sum(p[2] for p in parts))


def _check_workers(workers: int) -> int:
    workers = operator.index(workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers


def _map_chunks(func, args: tuple, items: range, workers: int) -> list:
    """[func(*args, chunk)] over strided slices of the range items, one per process
    of a pool of min(workers, usable CPUs, len(items)); no pool for a single chunk."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    size = min(workers, cpus or 1, len(items))
    if size <= 1:
        return [func(*args, items)]
    from multiprocessing import Pool

    with Pool(size) as pool:
        return pool.starmap(func, [args + (items[k::size],) for k in range(size)])


# ----------------------------------------------------------------------
# 5x5 random Cayley search
# ----------------------------------------------------------------------

def _search5_sample(config: SearchConfig, index: int):
    """(candidate | None, is_near_miss) for one sample index; a hit has a candidate.

    The ten skew parameters are drawn as (numerator, denominator) pairs in the
    order of Xorshift64Star.rational, in one _draws pass.  The kernels
    take the scaled strict-upper entries d * S in the order _skew_rows fixes,
    and rows are built only on the hit path.  P = cayley_integer(d, d * S) is a
    positive multiple of cayley(S) for any d > 0 that clears S, and
    P * P^t = det^2 * I, so verify's diagonal conditions on the primitive
    matrix are those of P's diagonals against gamma = det^2.  Both diagonals
    come from cayley5_diagonals' closed forms; only a sample passing both
    conditions forms P in full, and is rescaled and fully verified.  As det >
    0, verify must call such a P Euler magic, and each one is a candidate."""
    bound = config.numerator_bound
    # a list: CPython 3.11 parks freed 20-tuples on a free list it never reuses,
    # so a fresh 20-tuple per sample would hold up to 0.4 MiB
    # SearchConfig made the bounds ints, so the draws skip uniform_ints' operator.index
    draws = Xorshift64Star(stream_seed(config.seed, index))._draws(
        [(-bound, bound), (1, config.denominator_bound)] * 10)
    nums, dens = draws[::2], draws[1::2]
    d = lcm(*dens)
    upper = [num * (d // den) for num, den in zip(nums, dens)]
    det, diagonal, antidiagonal = cayley5_diagonals(d, upper)
    on_diagonal, on_antidiagonal = _squares_sum_to(det * det, diagonal, antidiagonal)
    if not (on_diagonal and on_antidiagonal):
        return None, on_diagonal != on_antidiagonal
    p, _ = cayley_integer(d, _skew_rows(5, upper))
    primitive = rescale_primitive(Matrix(5, 5, p))
    report = verify(primitive)
    if not report.is_euler_magic:
        raise RuntimeError("internal error: a sample on both diagonals failed verification")
    params = tuple(Fraction(num, den) for num, den in zip(nums, dens))
    return _make_candidate(index, params, primitive, report), False


def _search5_run_indices(config: SearchConfig, indices: Sequence[int]):
    candidates: List[Candidate] = []
    near = 0
    for i in indices:
        cand, is_near = _search5_sample(config, i)
        if cand is not None:
            candidates.append(cand)
        near += is_near
    return candidates, near, 0  # no full lines in the 5x5 search


def search5_cayley(config: SearchConfig, workers: int = 1) -> SearchResult:
    """Random rational skew parameters -> Cayley -> exact condition checks.

    Fully reproducible from the seed: identical configurations give identical
    results for any worker count.
    """
    workers = _check_workers(workers)
    indices = range(config.max_iterations)
    parts = _map_chunks(_search5_run_indices, (config,), indices, workers)
    return _merge_parts(parts, len(indices))


# ----------------------------------------------------------------------
# 8x8 seeded pipeline
# ----------------------------------------------------------------------

# Height H gives about 1.2 * H^2 offsets and a grid of about 1.5 * H^4 points:
# at 100 that is 12,175 offsets and 1.5e8 points (one worker's time for them is
# in README.md, Performance).  Far larger heights would exhaust memory on the offsets.
MAX_HEIGHT = 100


def _bounded_height_offsets(height: int) -> List[Fraction]:
    """0 and all reduced n/d with 1 <= |n| <= height, 1 <= d <= height,
    ordered by (|x|, x)."""
    values = {Fraction(0)}
    for den in range(1, height + 1):
        for num in range(1, height + 1):
            values.add(Fraction(num, den))
            values.add(Fraction(-num, den))
    return sorted(values, key=lambda x: (abs(x), x))


def _w_roots(c2: int, c1: int, c0: int) -> Optional[List[Fraction]]:
    """Rational roots of c2*w^2 + c1*w + c0; None means every w is a root."""
    if c2 == 0:
        if c1 == 0:
            return None if c0 == 0 else []
        return [Fraction(-c0, c1)]
    disc = c1 * c1 - 4 * c2 * c0
    root = isqrt(disc) if disc >= 0 else -1
    if root * root != disc:
        return []
    return sorted({Fraction(-c1 + root, 2 * c2), Fraction(-c1 - root, 2 * c2)})


def _point_solve(coeffs_a, coeffs_b):
    """(list of w hits, near_miss flag, full_line flag) at a grid point where A
    and B have the w-coefficients (c2, c1, c0); a full line is a point where A
    and B both vanish identically in w, so every w solves both."""
    roots_a, roots_b = _w_roots(*coeffs_a), _w_roots(*coeffs_b)
    if roots_a is None:
        return roots_b or [], False, roots_b is None
    if roots_b is None:
        return roots_a, False, False
    common = sorted(set(roots_a) & set(roots_b))
    return common, bool((roots_a or roots_b) and not common), False


def _row_coefficients(table, nu: int, du: int):
    """The rows (r[2], r[1], r[0]) of a (u, v, w) table at u = nu/du, with
    r[k][j] the sum of c * us[i] over its terms (i, j, k, c), us = (du^2, nu*du,
    nu^2): at v = nv/dv, r[k] dotted with (dv^2, nv*dv, nv^2) is du^2 * dv^2
    times the coefficient of w^k."""
    us = (du * du, nu * du, nu * nu)
    r = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for i, j, k, c in table:
        r[2 - k][j] += c * us[i]
    return r


def _row_form(table, nu: int, du: int):
    """(r20, r10, r11, r00, r01, r02) and the binary form (alpha, beta, gamma)
    of a (u, v, w) table on the u-row u = nu/du.

    A and B are quadratic in p..w, so every term (i, j, k, c) has i + j + k <=
    2 and _row_coefficients has r[2][1] = r[2][2] = r[1][2] = 0.  With x, y, z
    = dv^2, nv*dv, nv^2 the w-coefficients are c2 = r20*x, c1 = r10*x + r11*y
    and c0 = r00*x + r01*y + r02*z, and as y^2 = x*z,
    c1^2 - 4*c2*c0 = x * (alpha*x + beta*y + gamma*z)
    with alpha = r10^2 - 4*r20*r00, beta = 2*r10*r11 - 4*r20*r01 and gamma =
    r11^2 - 4*r20*r02.  When r20 = 0 the form is (r10*dv + r11*nv)^2."""
    (r20, r21, r22), (r10, r11, r12), (r00, r01, r02) = _row_coefficients(table, nu, du)
    if r21 or r22 or r12:
        raise RuntimeError("internal error: a w-coefficient of A or B has degree above 2 - k")
    return ((r20, r10, r11, r00, r01, r02),
            (r10 * r10 - 4 * r20 * r00, 2 * r10 * r11 - 4 * r20 * r01, r11 * r11 - 4 * r20 * r02))


def _w_coefficients(row, x: int, y: int, z: int):
    """(c2, c1, c0) at the point (x, y, z) = (dv^2, nv*dv, nv^2) of a _row_form row."""
    r20, r10, r11, r00, r01, r02 = row
    return r20 * x, r10 * x + r11 * y, r00 * x + r01 * y + r02 * z


def _search8_grid_chunk(left, partial, tables, us, vs, first, indices):
    """Grid point n of indices is u = nu/du = us[n // len(vs)] and v = nv/dv =
    vs[n % len(vs)], given as integer (numerator, denominator) pairs, with
    sample index first + n.  Each u-row's _row_form gives A's and B's
    discriminants in w as dv^2 times a binary form in (dv, nv); a point where
    neither form is a square has no rational root of A or B, so it is a miss
    decided with 3 products per form.  Every other point forms its
    w-coefficients and goes through _point_solve.  Returns (candidates, near
    misses, full lines)."""
    candidates: List[Candidate] = []
    near_misses = full_lines = 0
    vss = [(dv * dv, nv * dv, nv * nv) for nv, dv in vs]
    row = None
    for n in indices:
        i, j = divmod(n, len(vs))
        if i != row:  # indices ascend, so a chunk builds each of its u-rows once
            row = i
            row_a, (fa0, fa1, fa2) = _row_form(tables[0], *us[i])
            row_b, (fb0, fb1, fb2) = _row_form(tables[1], *us[i])
        x, y, z = vss[j]
        fa, fb = fa0 * x + fa1 * y + fa2 * z, fb0 * x + fb1 * y + fb2 * z
        if (fa < 0 or isqrt(fa) ** 2 != fa) and (fb < 0 or isqrt(fb) ** 2 != fb):
            continue
        ws, near, full = _point_solve(_w_coefficients(row_a, x, y, z),
                                      _w_coefficients(row_b, x, y, z))
        near_misses += near
        full_lines += full
        for w in ws:
            right = tuple(partial) + (Fraction(*us[i]), Fraction(*vs[j]), w)
            # never the zero matrix: that needs p..t = 0, which the properness gate rejects
            primitive, report = verified_product(left, right)
            if not report.is_euler_magic:
                raise RuntimeError("internal error: solved point failed verification")
            candidates.append(_make_candidate(first + n, right, primitive, report))
    return candidates, near_misses, full_lines


def search8_seeded(
    left: Sequence[int],
    partial: Sequence[Fraction],
    supplied: Optional[Sequence[Fraction]] = None,
    height: int = 0,
    center: Optional[Tuple[Fraction, Fraction]] = None,
    workers: int = 1,
) -> SearchResult:
    """Fix the left tuple and (p,q,r,s,t); solve A = B = 0 for (u,v,w).

    The left tuple must give a proper polynomial matrix (witness scan), and
    the specialization by the partial values must preserve that, else error.
    A supplied (u,v,w) is sample 0 if verify finds its matrix Euler magic,
    and an error otherwise; as verify's conditions and A = B = 0 are the same
    statement, it is the candidate the grid finds at its (u,v).  Height 0
    scans no grid; with height >= 1 the (u,v) plane is scanned over
    bounded-height offsets around center (default (0,0)); at each point the
    two conditions become polynomials of degree <= 2 in w with integer
    coefficients, solved exactly over the rationals.  A height below 0 or
    above MAX_HEIGHT is an error.
    """
    workers = _check_workers(workers)
    height = operator.index(height)
    if height < 0:
        raise ValueError(f"height must be nonnegative, got {height}")
    if height > MAX_HEIGHT:
        raise ValueError(f"height must be at most {MAX_HEIGHT}, got {height}")
    forms = integer_forms(left)
    left = forms.left  # the checked ints; each use below is unchanged by scaling
    partial = exact_rationals(partial, "fixed values (p, q, r, s, t)")
    if len(partial) != 5:
        raise ValueError("expected exactly five fixed values (p, q, r, s, t)")
    if supplied is not None:
        supplied = exact_rationals(supplied, "supplied values")
        if len(supplied) != 3:
            raise ValueError("expected exactly three supplied values (u, v, w)")
    if center is not None:
        center = exact_rationals(center, "center coordinates")
        if len(center) != 2:
            raise ValueError("expected exactly two center coordinates (u, v)")
    if improper_witnesses(left):
        raise ValueError("polynomial matrix improper")
    if not entries_distinct(left + partial):
        raise ValueError("polynomial matrix improper after fixing (p, q, r, s, t)")

    parts = []
    if supplied is not None:
        right = partial + supplied
        primitive, report = verified_product(left, right)
        if not report.is_euler_magic:
            raise ValueError("supplied solution does not satisfy the diagonal conditions")
        parts.append(([_make_candidate(0, right, primitive, report)], 0, 0))
    first = len(parts)  # the grid's first sample index
    points = range(0)
    if height > 0:
        cu, cv = (0, 0) if center is None else center
        # A and B as integer terms (i, j, k, c): c * u^i * v^j * w^k, at most 10 each
        tables = _specialised_terms(forms, partial + (None,) * 3)
        offsets = _bounded_height_offsets(height)
        us, vs = ([(y.numerator, y.denominator) for y in (c + x for x in offsets)]
                  for c in (cu, cv))
        # the grid us x vs, u outer, as an index range
        points = range(len(us) * len(vs))
        parts += _map_chunks(_search8_grid_chunk, (left, partial, tables, us, vs, first),
                             points, workers)
    return _merge_parts(parts, first + len(points))
