"""Seeded, reproducible search harnesses.

Two search styles share this module:

* a random 5x5 search that samples rational skew-symmetric parameters,
  applies the Cayley transform, and keeps exact hits of the two diagonal
  conditions (near misses - exactly one condition holding - are counted);
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
spans used here and is fixed by this contract).  Candidate lists are merged
in (score descending, sample index ascending) order, which makes output
byte-identical for equal seeds regardless of worker count.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cayley import _skew_rows, cayley_integer
from .family8 import (
    IntegerForms,
    entries_distinct,
    improper_witnesses,
    integer_forms,
    verified_product,
)
from .matrices import Matrix, clear_denominators, rescale_primitive
from .verify import VerifyReport, verify

__all__ = [
    "Xorshift64Star",
    "stream_seed",
    "SearchConfig",
    "Candidate",
    "SearchResult",
    "search5_cayley",
    "search8_seeded",
    "greedy_backtrack_left",
    "candidate_to_json_dict",
    "summary_to_json_dict",
    "canonical_json",
]

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 0x2545F4914F6CDD1D
_STREAM_STEP = 0x9E3779B97F4A7C15


class Xorshift64Star:
    """xorshift64* with the documented constants; never yields a zero state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        if self.state == 0:
            self.state = _STREAM_STEP

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * _MULTIPLIER) & _MASK64

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform on [lo, hi] by modulo reduction (bias fixed by contract)."""
        if lo > hi:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def rational(self, numerator_bound: int, denominator_bound: int) -> Fraction:
        """Numerator uniform in [-N, N], denominator uniform in [1, D], reduced."""
        num = self.uniform_int(-numerator_bound, numerator_bound)
        den = self.uniform_int(1, denominator_bound)
        return Fraction(num, den)


def stream_seed(seed: int, index: int) -> int:
    """The per-sample generator seed; independent of how samples are batched."""
    return (seed + (index + 1) * _STREAM_STEP) & _MASK64


@dataclass(frozen=True)
class SearchConfig:
    seed: int
    numerator_bound: int = 120
    denominator_bound: int = 8
    max_iterations: int = 1000
    score_threshold: int = 1

    def __post_init__(self):
        if self.numerator_bound < 1 or self.denominator_bound < 1:
            raise ValueError("bounds must be at least 1")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")


@dataclass(frozen=True)
class Candidate:
    sample_index: int
    source_params: Tuple[Fraction, ...]
    matrix: Matrix
    score: int
    duplicates: Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...]
    gamma: Fraction


@dataclass(frozen=True)
class SearchResult:
    candidates: Tuple[Candidate, ...]
    iterations: int
    hits: int
    near_misses: int
    best_score: int
    # 8x8 grid points where A and B both vanish identically in w; not in the JSON summary
    full_lines: int = 0


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
    seen = set()
    out = []
    for c in ordered:
        if c.matrix.entries not in seen:
            seen.add(c.matrix.entries)
            out.append(c)
    return tuple(out)


def _merge_parts(parts, iterations: int) -> SearchResult:
    """One result from per-chunk (candidates, hits, near misses, full lines);
    counts add up in chunk order, so the merge does not depend on workers."""
    ranked = _rank(c for candidates, _, _, _ in parts for c in candidates)
    best = ranked[0].score if ranked else 0
    return SearchResult(ranked, iterations, sum(p[1] for p in parts),
                        sum(p[2] for p in parts), best, sum(p[3] for p in parts))


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _map_chunks(func, args: tuple, items: range, workers: int) -> list:
    """[func(*args, chunk)] over strided slices of the range items, one per process
    of a pool of min(workers, CPU count, len(items)); no pool for a single chunk."""
    size = min(workers, os.cpu_count() or 1, len(items))
    if size <= 1:
        return [func(*args, items)]
    from multiprocessing import Pool

    with Pool(size) as pool:
        return pool.starmap(func, [args + (items[k::size],) for k in range(size)])


# ----------------------------------------------------------------------
# 5x5 random Cayley search
# ----------------------------------------------------------------------

def _search5_primitive(params: Sequence[Fraction]) -> Matrix:
    """The primitive integer matrix of cayley(S), for the 5x5 skew S with
    strict upper triangle params, computed in integers only."""
    d, upper = clear_denominators(params)
    # P is a positive multiple of cayley(S), so it has the same primitive matrix
    scaled, _ = cayley_integer(d, _skew_rows(5, upper))
    return rescale_primitive(Matrix(5, 5, scaled))


def _search5_sample(config: SearchConfig, index: int):
    """(candidate | None, is_hit, is_near_miss) for one sample index."""
    rng = Xorshift64Star(stream_seed(config.seed, index))
    params = tuple(
        rng.rational(config.numerator_bound, config.denominator_bound)
        for _ in range(10)
    )
    primitive = _search5_primitive(params)
    report = verify(primitive)
    if report.is_euler_magic:
        if report.distinct_square_count >= config.score_threshold:
            return _make_candidate(index, params, primitive, report), True, False
        return None, True, False
    if report.cond_diagonal != report.cond_antidiagonal:
        return None, False, True
    return None, False, False


def _search5_run_indices(config: SearchConfig, indices: Sequence[int]):
    candidates: List[Candidate] = []
    hits = near = 0
    for i in indices:
        cand, is_hit, is_near = _search5_sample(config, i)
        if cand is not None:
            candidates.append(cand)
        hits += is_hit
        near += is_near
    return candidates, hits, near, 0  # no full lines in the 5x5 search


def search5_cayley(config: SearchConfig, workers: int = 1) -> SearchResult:
    """Random rational skew parameters -> Cayley -> exact condition checks.

    Fully reproducible from the seed: identical configurations give identical
    results for any worker count.
    """
    _check_workers(workers)
    indices = range(config.max_iterations)
    parts = _map_chunks(_search5_run_indices, (config,), indices, workers)
    return _merge_parts(parts, len(indices))


# ----------------------------------------------------------------------
# 8x8 seeded pipeline
# ----------------------------------------------------------------------

def _bounded_height_offsets(height: int) -> List[Fraction]:
    """0 and all reduced n/d with 1 <= |n| <= height, 1 <= d <= height,
    ordered by (|x|, x)."""
    values = {Fraction(0)}
    for den in range(1, height + 1):
        for num in range(1, height + 1):
            values.add(Fraction(num, den))
            values.add(Fraction(-num, den))
    return sorted(values, key=lambda x: (abs(x), x))


def _uvw_tables(forms: IntegerForms, partial: Sequence[Fraction]):
    """A and B with (p..t) fixed, times a positive constant, as integer terms
    (i, j, k, c) meaning c * u^i * v^j * w^k (at most 10 terms each)."""
    den, ipartial = clear_denominators(partial)
    # den * (p..w) with p..t fixed: (integer coefficient, exponents of u, v, w)
    coords = [(x, (0, 0, 0)) for x in ipartial] + [
        (den, (1, 0, 0)), (den, (0, 1, 0)), (den, (0, 0, 1))]
    tables = []
    for gram in (forms.gram_a, forms.gram_b):
        terms: Dict[Tuple[int, int, int], int] = {}
        for row, (ck, ek) in zip(gram, coords):
            for g, (cm, em) in zip(row, coords):
                exps = (ek[0] + em[0], ek[1] + em[1], ek[2] + em[2])
                terms[exps] = terms.get(exps, 0) + g * ck * cm
        tables.append(tuple((*exps, c) for exps, c in terms.items() if c))
    return tuple(tables)


def _w_roots(table, us, vs) -> Optional[List[Fraction]]:
    """Rational roots in w of a (u, v, w) table at u = nu/du, v = nv/dv, given
    us = (du^2, nu*du, nu^2) and likewise vs; None means every w is a root."""
    c = [0, 0, 0]
    for i, j, k, coeff in table:
        c[k] += coeff * us[i] * vs[j]  # times du^2 * dv^2
    c0, c1, c2 = c
    if c2 == 0:
        if c1 == 0:
            return None if c0 == 0 else []
        return [Fraction(-c0, c1)]
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    root = isqrt(disc)
    if root * root != disc:
        return []
    if root == 0:
        return [Fraction(-c1, 2 * c2)]
    return sorted([Fraction(-c1 + root, 2 * c2), Fraction(-c1 - root, 2 * c2)])


def _point_solve(tables, nu: int, du: int, nv: int, dv: int):
    """Solve for w at u = nu/du, v = nv/dv: (list of w hits, near_miss flag,
    full_line flag); a full line is a point where A and B both vanish
    identically in w, so every w solves both."""
    us = (du * du, nu * du, nu * nu)
    vs = (dv * dv, nv * dv, nv * nv)
    roots_a, roots_b = (_w_roots(table, us, vs) for table in tables)
    if roots_a is None:
        return roots_b or [], False, roots_b is None
    if roots_b is None:
        return roots_a, False, False
    common = sorted(set(roots_a) & set(roots_b))
    near = bool((roots_a or roots_b) and not common)
    return common, near, False


def _search8_grid_chunk(left, partial, tables, us, vs, first, indices):
    """Grid point n of indices is u = nu/du = us[n // len(vs)] and v = nv/dv =
    vs[n % len(vs)], given as integer (numerator, denominator) pairs, with
    sample index first + n.  Returns (candidates, hits, near misses, full
    lines)."""
    candidates: List[Candidate] = []
    hits = near_misses = full_lines = 0
    for n in indices:
        i, j = divmod(n, len(vs))
        (nu, du), (nv, dv) = us[i], vs[j]
        ws, near, full = _point_solve(tables, nu, du, nv, dv)
        near_misses += near
        full_lines += full
        for w in ws:
            right = tuple(partial) + (Fraction(nu, du), Fraction(nv, dv), w)
            # never the zero matrix: that needs p..t = 0, which the properness gate rejects
            _, primitive, report = verified_product(left, right)
            if not report.is_euler_magic:
                raise RuntimeError("internal error: solved point failed verification")
            candidates.append(_make_candidate(first + n, right, primitive, report))
            hits += 1
    return candidates, hits, near_misses, full_lines


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
    A supplied (u,v,w) is verified exactly as sample 0.  With height >= 1 the
    (u,v) plane is scanned over bounded-height offsets around center
    (default (0,0)); at each point the two conditions become polynomials of
    degree <= 2 in w with integer coefficients, solved exactly over the
    rationals.
    """
    _check_workers(workers)
    left = tuple(Fraction(x) for x in left)
    partial = tuple(Fraction(x) for x in partial)
    if len(partial) != 5:
        raise ValueError("expected exactly five fixed values (p, q, r, s, t)")
    scan = improper_witnesses(left)
    if not scan.polynomial_matrix_proper or scan.properness_obstructed:
        raise ValueError("polynomial matrix improper")
    if not entries_distinct(left + partial):
        raise ValueError("polynomial matrix improper after fixing (p, q, r, s, t)")
    tables = _uvw_tables(integer_forms(left), partial)

    parts = []
    if supplied is not None:
        u, v, w = (Fraction(x) for x in supplied)
        got, _, near, _ = _search8_grid_chunk(
            left, partial, tables, [(u.numerator, u.denominator)],
            [(v.numerator, v.denominator)], 0, range(1))
        kept = [c for c in got if c.source_params[7] == w]
        if not kept:
            raise ValueError("supplied solution does not satisfy the diagonal conditions")
        parts.append((kept, len(kept), near, 0))
    first = len(parts)  # the grid's first sample index
    points = range(0)
    if height > 0:
        cu, cv = (Fraction(0), Fraction(0)) if center is None else (
            Fraction(center[0]), Fraction(center[1]))
        offsets = _bounded_height_offsets(height)
        us, vs = ([(y.numerator, y.denominator) for y in (c + x for x in offsets)]
                  for c in (cu, cv))
        # the grid us x vs, u outer, as an index range
        points = range(len(us) * len(vs))
        parts += _map_chunks(_search8_grid_chunk, (left, partial, tables, us, vs, first),
                             points, workers)
    return _merge_parts(parts, first + len(points))


# ----------------------------------------------------------------------
# greedy backtracking over small left/partial tuples
# ----------------------------------------------------------------------

def _greedy_values(lo: int, hi: int, rng: Xorshift64Star) -> List[int]:
    """Integers of [lo, hi] in increasing |value|, seed-shuffled within ties."""
    by_abs: Dict[int, List[int]] = {}
    for v in range(lo, hi + 1):
        by_abs.setdefault(abs(v), []).append(v)
    out: List[int] = []
    for a in sorted(by_abs):
        group = sorted(by_abs[a])
        for k in range(len(group) - 1, 0, -1):
            j = rng.uniform_int(0, k)
            group[k], group[j] = group[j], group[k]
        out.extend(group)
    return out


def greedy_backtrack_left(
    bounds,
    seed: int,
    max_results: int = 16,
    max_nodes: Optional[int] = None,
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Depth-first assignment of (a..h, p..t) by increasing absolute value.

    bounds is one (lo, hi) pair applied to all thirteen positions, or a
    sequence of thirteen such pairs.  After each assignment the 64 entry
    polynomials (in the still-free variables) are compared up to sign by
    entries_distinct; a collision means two entry squares already coincide
    identically, so the branch is pruned.  Tuples that survive with all
    thirteen values placed have a proper polynomial matrix in (u, v, w) and
    are emitted as (left, partial) pairs.  Deterministic for a given seed;
    max_nodes >= 0 bounds the number of assignments tried (the budget is part
    of the result's reproducibility contract, not a wall-clock cutoff).
    """
    bounds = list(bounds)
    if len(bounds) == 2 and all(isinstance(b, int) for b in bounds):
        per_position = [(bounds[0], bounds[1])] * 13
    else:
        per_position = [(int(lo), int(hi)) for lo, hi in bounds]
        if len(per_position) != 13:
            raise ValueError("need bounds for exactly 13 positions")
    for lo, hi in per_position:
        if lo > hi:
            raise ValueError("empty bound range")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must be nonnegative, got {max_nodes}")

    rng = Xorshift64Star(seed)
    orders = [_greedy_values(lo, hi, rng) for lo, hi in per_position]
    results: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    assigned: List[int] = []
    nodes_left = inf if max_nodes is None else max_nodes

    def descend(depth: int) -> bool:
        nonlocal nodes_left
        if len(results) >= max_results:
            return True
        if depth == 13:
            results.append((tuple(assigned[:8]), tuple(assigned[8:])))
            return len(results) >= max_results
        for value in orders[depth]:
            if nodes_left == 0:
                return True
            nodes_left -= 1
            assigned.append(value)
            done = entries_distinct(assigned) and descend(depth + 1)
            assigned.pop()
            if done:
                return True
        return False

    descend(0)
    return results


# ----------------------------------------------------------------------
# JSON output
# ----------------------------------------------------------------------

def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def candidate_to_json_dict(candidate: Candidate) -> dict:
    return {
        "sample_index": candidate.sample_index,
        "source_params": [str(x) for x in candidate.source_params],
        "matrix": [[str(x) for x in row] for row in candidate.matrix.entries],
        "gamma": str(candidate.gamma),
        "score": candidate.score,
        "duplicates": [
            [[i, j], [k, l]] for (i, j), (k, l) in candidate.duplicates
        ],
    }


def summary_to_json_dict(result: SearchResult) -> dict:
    return {
        "summary": True,
        "iterations": result.iterations,
        "hits": result.hits,
        "near_misses": result.near_misses,
        "best_score": result.best_score,
    }
