"""Unit tests for the seeded search harnesses and their determinism contract."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulermagic import search
from eulermagic.cayley import (
    _skew_rows,
    cayley,
    cayley5_diagonals,
    cayley_integer,
    inverse_cayley,
    ortho_reduce,
    skew_from_upper,
)
from eulermagic.cli import _candidate_json, _canonical_json, _summary_json
from eulermagic.matrices import Matrix, mat_mul, mat_scale, rescale_primitive
from eulermagic.octonion import left_matrix, right_matrix
from eulermagic.search import (
    MAX_HEIGHT,
    SearchConfig,
    Xorshift64Star,
    _bounded_height_offsets,
    search5_cayley,
    search8_seeded,
    stream_seed,
)
from eulermagic.verify import verify

from conftest import cayley5_diagonals_by_bareiss, load_fixture

WORKED_LEFT = (0, 1, 1, 1, 1, 1, -1, 5)
WORKED_PARTIAL = (3, -2, -4, 5, 6)
WORKED_SOLUTION = (Fraction(13, 15), Fraction(-14, 15), Fraction(-23, 5))
WORKED_RIGHT = (45, -30, -60, 75, 90, 13, -14, -69)


def _worked_target_entries():
    target = rescale_primitive(
        mat_mul(left_matrix(WORKED_LEFT), right_matrix(WORKED_RIGHT))
    )
    neg = tuple(tuple(-x for x in row) for row in target.entries)
    return target.entries, neg


def _next_u64(rng):
    """The generator's next raw 64-bit output: a draw over the full span."""
    return rng.uniform_ints(((0, 2**64 - 1),))[0]


def test_prng_determinism_and_range():
    r1, r2 = Xorshift64Star(42), Xorshift64Star(42)
    seq1 = [_next_u64(r1) for _ in range(200)]
    seq2 = [_next_u64(r2) for _ in range(200)]
    assert seq1 == seq2
    assert all(0 <= v < 2**64 for v in seq1)
    assert len(set(seq1)) == 200


def test_prng_zero_seed_is_valid():
    r = Xorshift64Star(0)
    assert r.state != 0
    assert _next_u64(r) != 0


def test_prng_uniform_int_bounds():
    r = Xorshift64Star(7)
    values = [r.uniform_int(-3, 3) for _ in range(500)]
    assert set(values) <= set(range(-3, 4))
    assert len(set(values)) == 7  # every residue appears at this sample size


def test_prng_rational_bounds():
    r = Xorshift64Star(7)
    for _ in range(300):
        x = r.rational(5, 3)
        assert -5 <= x.numerator * (1 if x.denominator > 0 else -1)
        assert abs(x) <= 5
        assert 1 <= Fraction(x).denominator <= 3


def _reference_xorshift64star(seed):
    """xorshift64* written out from its definition: (state, multiplier) =
    (seed mod 2^64, 0x2545F4914F6CDD1D), a zero state replaced by
    0x9E3779B97F4A7C15; yields the 64-bit outputs."""
    state = seed % 2**64 or 0x9E3779B97F4A7C15
    while True:
        state ^= state >> 12
        state = (state ^ (state << 25)) % 2**64
        state ^= state >> 27
        yield state * 0x2545F4914F6CDD1D % 2**64


_RANGE = st.tuples(st.integers(-2**70, 2**70), st.integers(0, 2**64 - 1)).map(
    lambda lo_width: (lo_width[0], lo_width[0] + lo_width[1]))


@given(st.integers(-2**70, 2**70), st.lists(_RANGE | st.just((0, 2**64 - 1)), max_size=25))
@example(0, [(0, 2**64 - 1), (-3, 3)])
@example(2**64 - 0x9E3779B97F4A7C15, [(1, 1), (-120, 120), (1, 8)])  # stream_seed(., 0) == 0
@settings(max_examples=200)
def test_prng_uniform_ints_match_a_reference_xorshift(seed, ranges):
    reference = _reference_xorshift64star(seed)
    expected = [lo + next(reference) % (hi - lo + 1) for lo, hi in ranges]
    rng = Xorshift64Star(seed)
    assert rng.uniform_ints(ranges) == expected
    assert all(lo <= x <= hi for (lo, hi), x in zip(ranges, expected))
    # the stream continues where the draws left off, and an empty range
    # raises before any draw of its call
    assert _next_u64(rng) == next(reference)
    with pytest.raises(ValueError):
        rng.uniform_ints([(0, 5), (1, 0)])
    with pytest.raises(ValueError):
        rng.uniform_int(3, 2)
    assert _next_u64(rng) == next(reference)


@pytest.mark.parametrize("draw", [
    lambda rng: rng.uniform_int(0, 2.5),
    lambda rng: rng.uniform_int(Fraction(1, 2), 3),
    lambda rng: rng.uniform_ints([(0.5, 3)]),
    lambda rng: rng.uniform_ints([(0, 3), (0, "3")]),
    lambda rng: rng.rational(2.5, 2),
    lambda rng: rng.rational(Fraction(3), 2),
    lambda rng: rng.rational(3, Fraction(2)),
])
def test_prng_refuses_non_integer_bounds_before_any_draw(draw):
    # these used to return floats, or fail inside Fraction
    rng, reference = Xorshift64Star(5), _reference_xorshift64star(5)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        draw(rng)
    assert _next_u64(rng) == next(reference)
    # a bool bound is the integer it stands for
    assert rng.uniform_int(False, True) == next(reference) % 2
    assert rng.rational(True, True) == -1 + next(reference) % 3


@pytest.mark.parametrize("draw", [
    lambda rng: rng.uniform_int(0, 2**64),
    lambda rng: rng.uniform_int(-2**70, 2**70),
    lambda rng: rng.uniform_ints([(0, 3), (-2**63, 2**63)]),
    lambda rng: rng.rational(2**63, 1),
    lambda rng: rng.rational(1, 2**64 + 1),
])
def test_prng_refuses_a_range_wider_than_its_outputs_before_any_draw(draw):
    # a draw is lo + (64-bit output) mod span, so a span above 2^64 never
    # reached its top: 20,000 draws of uniform_int(0, 2**70) all fell below 2^64
    rng, reference = Xorshift64Star(5), _reference_xorshift64star(5)
    with pytest.raises(ValueError, match="range exceeds the generator's 2\\^64 outputs"):
        draw(rng)
    assert _next_u64(rng) == next(reference)
    # a span of exactly 2^64 is the widest
    assert rng.uniform_int(-2**63, 2**63 - 1) == -2**63 + next(reference)
    assert rng.rational(2**63 - 1, 2**64) == Fraction(
        -(2**63 - 1) + next(reference) % (2**64 - 1), 1 + next(reference))


@pytest.mark.parametrize("seed", [0, 1, 42, -1, 2**64, stream_seed(2**64 - 0x9E3779B97F4A7C15, 0)])
def test_prng_streams_match_the_reference(seed):
    reference = _reference_xorshift64star(seed)
    rng = Xorshift64Star(seed)
    assert [_next_u64(rng) for _ in range(50)] == [next(reference) for _ in range(50)]
    assert [rng.uniform_int(-7, 9) for _ in range(50)] == [
        -7 + next(reference) % 17 for _ in range(50)]
    assert [rng.rational(120, 8) for _ in range(50)] == [
        Fraction(-120 + next(reference) % 241, 1 + next(reference) % 8) for _ in range(50)]


def test_stream_seed_distinct_streams():
    seeds = [stream_seed(99, i) for i in range(50)]
    assert len(set(seeds)) == 50
    firsts = {_next_u64(Xorshift64Star(s)) for s in seeds}
    assert len(firsts) == 50


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(seed=1, numerator_bound=0)
    with pytest.raises(ValueError):
        SearchConfig(seed=1, denominator_bound=0)
    with pytest.raises(ValueError):
        SearchConfig(seed=1, max_iterations=-1)


def test_search_config_refuses_non_integer_seed_count_and_score():
    # a float seed used to fail later, in stream_seed's mask, and a float
    # iteration count in range(); both are refused at construction now
    for field in ("seed", "max_iterations"):
        for bad in (0.5, 2.5, Fraction(5, 2), Fraction(2)):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                SearchConfig(**{"seed": 1, field: bad})
    config = SearchConfig(seed=True, max_iterations=True)
    assert (config.seed, config.max_iterations) == (1, 1)
    assert type(config.seed) is int


def test_search_config_refuses_bounds_beyond_the_generator():
    # a draw is lo + (64-bit output) mod span, uniform only for spans up to 2^64
    SearchConfig(seed=1, numerator_bound=2**63 - 1, denominator_bound=2**64)
    for bounds in ({"numerator_bound": 2**63}, {"numerator_bound": 10**30},
                   {"denominator_bound": 2**64 + 1}, {"denominator_bound": 2**70}):
        with pytest.raises(ValueError, match="2\\^64"):
            SearchConfig(seed=1, **bounds)


def test_search5_repeat_and_worker_determinism():
    config = SearchConfig(
        seed=2024,
        numerator_bound=9,
        denominator_bound=4,
        max_iterations=60,
    )
    serial1 = search5_cayley(config)
    serial2 = search5_cayley(config)
    parallel = search5_cayley(config, workers=3)
    assert serial1 == serial2
    assert serial1 == parallel
    lines_serial = [_canonical_json(_candidate_json(c)) for c in serial1.candidates]
    lines_parallel = [_canonical_json(_candidate_json(c)) for c in parallel.candidates]
    assert lines_serial == lines_parallel
    assert _canonical_json(_summary_json(serial1)) == _canonical_json(
        _summary_json(parallel)
    )


def test_search5_zero_iterations():
    result = search5_cayley(SearchConfig(seed=1, max_iterations=0))
    assert result.candidates == ()
    assert result.iterations == 0
    assert result.hits == 0


def test_search5_known_near_miss():
    # exact hits are rare at small sample sizes; this configuration lands one
    # sample where exactly one of the two diagonal conditions holds
    config = SearchConfig(
        seed=6, numerator_bound=3, denominator_bound=2, max_iterations=1500
    )
    result = search5_cayley(config, workers=2)
    assert result.iterations == 1500
    assert result.hits == 0
    assert result.near_misses == 1
    assert result.candidates == ()
    assert result.best_score == 0


def _recording_cayley5_diagonals(monkeypatch):
    """Record (d, upper, (det, diagonal, antidiagonal)) for every call of the
    sampler's integer Cayley kernel; upper is the ten entries of d * S."""
    calls = []

    def recording(d, upper):
        result = cayley5_diagonals(d, upper)
        calls.append((d, upper, result))
        return result

    monkeypatch.setattr(search, "cayley5_diagonals", recording)
    return calls


def test_search5_transforms_every_sample_at_unit_bounds(monkeypatch):
    # bounds 1/1 draw every skew entry from {-1, 0, 1}, the all-zero S among
    # them; its Cayley transform is I, and no sample may be dropped
    zero = skew_from_upper(5, [0] * 10).entries
    scaled, det = cayley_integer(1, zero)
    assert det == 1
    assert rescale_primitive(Matrix(5, 5, scaled)) == Matrix.from_rows(
        [[int(i == j) for j in range(5)] for i in range(5)])
    assert cayley5_diagonals(1, [0] * 10) == (1, [1] * 5, [0, 0, 1, 0, 0])
    calls = _recording_cayley5_diagonals(monkeypatch)
    config = SearchConfig(seed=5, numerator_bound=1, denominator_bound=1,
                          max_iterations=300)
    result = search5_cayley(config)
    assert result.iterations == len(calls) == 300
    # P * P^t = det^2 * I, so det > 0 means a nonzero transform
    assert all(d == 1 and diagonals == cayley5_diagonals_by_bareiss(d, upper)
               and diagonals[0] > 0 for d, upper, diagonals in calls)


class _ScriptedDraws:
    """Stands in for Xorshift64Star: _draws hands out fixed values in order,
    one per range."""

    def __init__(self, values):
        self._values = iter(values)

    def _draws(self, ranges):
        return [next(self._values) for _ in ranges]


@pytest.mark.parametrize("k", range(1, 6))
def test_search5_integer_core_reaches_the_fixtures(monkeypatch, k):
    # the hit path: skew parameters whose Cayley transform is a known 5x5
    # Euler magic matrix, drawn as (numerator, denominator) pairs and pushed
    # through the sampler from its integer core to its candidate
    m = load_fixture(f"five5_{k}.txt")
    negated = tuple(tuple(-x for x in row) for row in m.entries)
    for sign in (1, -1):
        _, orthogonal = ortho_reduce(mat_scale(sign, m))
        s = inverse_cayley(orthogonal)
        params = [s.entry(i, j) for i in range(5) for j in range(i + 1, 5)]
        draws = [v for x in params for v in (x.numerator, x.denominator)]
        monkeypatch.setattr(search, "Xorshift64Star", lambda seed: _ScriptedDraws(draws))
        candidate, is_near = search._search5_sample(SearchConfig(seed=0), 0)
        assert (candidate is not None, is_near) == (True, False)
        assert candidate.matrix.entries in (m.entries, negated)
        assert candidate.source_params == tuple(params)
        assert verify(candidate.matrix).is_euler_magic


@pytest.mark.parametrize("numerator_bound, denominator_bound", [(120, 8), (3, 2), (1, 1)])
def test_search5_sampler_matches_public_cayley(monkeypatch, numerator_bound,
                                               denominator_bound):
    calls = _recording_cayley5_diagonals(monkeypatch)
    config = SearchConfig(seed=17, numerator_bound=numerator_bound,
                          denominator_bound=denominator_bound, max_iterations=300)
    search5_cayley(config)
    assert len(calls) == 300
    for index, (d, upper, diagonals) in enumerate(calls):
        rng = Xorshift64Star(stream_seed(config.seed, index))
        params = [rng.rational(numerator_bound, denominator_bound) for _ in range(10)]
        skew = skew_from_upper(5, params)
        assert skew_from_upper(5, upper) == mat_scale(d, skew)
        assert diagonals == cayley5_diagonals_by_bareiss(d, upper)
        p, _ = cayley_integer(d, _skew_rows(5, upper))
        assert rescale_primitive(Matrix(5, 5, p)) == rescale_primitive(cayley(skew))


def _reference_search5(config):
    """search5_cayley as a plain loop that runs the public Cayley map and a
    full verify on every sample: (hits, near misses, candidate JSON lines,
    the primitive matrices whose two diagonal conditions hold)."""
    hits = near = 0
    found, both_hold = [], []
    for index in range(config.max_iterations):
        rng = Xorshift64Star(stream_seed(config.seed, index))
        params = [rng.rational(config.numerator_bound, config.denominator_bound)
                  for _ in range(10)]
        primitive = rescale_primitive(cayley(skew_from_upper(5, params)))
        report = verify(primitive)
        hits += report.is_euler_magic
        near += report.cond_diagonal != report.cond_antidiagonal
        if report.cond_diagonal and report.cond_antidiagonal:
            both_hold.append(primitive)
        if report.is_euler_magic:
            negated = tuple(tuple(-x for x in row) for row in primitive.entries)
            found.append((-report.distinct_square_count, index,
                          min(primitive.entries, negated), params, report))
    lines, seen = [], set()
    for minus_score, index, matrix, params, report in sorted(found, key=lambda f: f[:2]):
        if matrix not in seen:
            seen.add(matrix)
            lines.append(_canonical_json({
                "sample_index": index,
                "source_params": [str(x) for x in params],
                "matrix": [[str(x) for x in row] for row in matrix],
                "gamma": str(report.gamma),
                "score": -minus_score,
                "duplicates": [[list(p), list(q)] for p, q in report.duplicate_pairs],
            }))
    return hits, near, lines, both_hold


# the ids keep a former third parameter, a score threshold of 1
@pytest.mark.parametrize("numerator_bound, denominator_bound",
                         [(1, 1), (2, 1), (3, 2), (120, 8)],
                         ids=["1-1-1", "2-1-1", "3-2-1", "120-8-1"])
def test_search5_matches_a_full_verify_of_every_sample(numerator_bound, denominator_bound):
    config = SearchConfig(seed=4, numerator_bound=numerator_bound,
                          denominator_bound=denominator_bound, max_iterations=1000)
    hits, near, lines, _ = _reference_search5(config)
    result = search5_cayley(config)
    assert (result.hits, result.near_misses) == (hits, near)
    assert [_canonical_json(_candidate_json(c)) for c in result.candidates] == lines
    if numerator_bound == 1:
        # hits at bounds 1/1 score 2, and every hit is emitted
        assert hits and lines


def test_search5_verifies_exactly_the_samples_on_both_diagonals(monkeypatch):
    verified = []

    def recording_verify(m):
        verified.append(m)
        return verify(m)

    config = SearchConfig(seed=5, numerator_bound=1, denominator_bound=1,
                          max_iterations=1000)
    *_, both_hold = _reference_search5(config)
    monkeypatch.setattr(search, "verify", recording_verify)
    search5_cayley(config)
    assert both_hold and verified == both_hold


def test_search5_kernel_and_skew_rows_agree_on_the_upper_order():
    # the parameter order of the skew matrix is fixed by the row builder that
    # skew_from_upper wraps; the closed-form kernel unpacks the same ten
    # entries by name, and ten distinct entries make any swapped pair show
    upper = [2, -3, 5, 7, -11, 13, 17, -19, 23, 29]
    d = 6
    reference = cayley5_diagonals_by_bareiss(d, upper)
    assert cayley5_diagonals(d, upper) == reference
    for i in range(10):
        for j in range(i + 1, 10):
            swapped = list(upper)
            swapped[i], swapped[j] = upper[j], upper[i]
            assert cayley5_diagonals_by_bareiss(d, swapped) != reference, (i, j)


def test_search5_builds_rows_only_on_the_hit_path(monkeypatch):
    # a sample that fails a diagonal condition never forms its skew matrix
    calls = []

    def counting_skew_rows(n, values):
        calls.append(n)
        return _skew_rows(n, values)

    config = SearchConfig(seed=5, numerator_bound=1, denominator_bound=1,
                          max_iterations=1000)
    *_, both_hold = _reference_search5(config)
    monkeypatch.setattr(search, "_skew_rows", counting_skew_rows)
    search5_cayley(config)
    assert both_hold and calls == [5] * len(both_hold)


def test_searches_hand_workers_index_ranges(monkeypatch):
    # neither search materialises its samples or grid points as a list
    seen = []
    map_chunks = search._map_chunks

    def recording_map_chunks(func, args, items, workers):
        seen.append(items)
        return map_chunks(func, args, items, workers)

    monkeypatch.setattr(search, "_map_chunks", recording_map_chunks)
    search5_cayley(SearchConfig(seed=3, max_iterations=7), workers=2)
    search8_seeded(WORKED_LEFT, WORKED_PARTIAL, supplied=WORKED_SOLUTION, height=1)
    assert [type(items) for items in seen] == [range, range]
    assert seen == [range(7), range(len(_bounded_height_offsets(1)) ** 2)]


def test_search8_supplied_solution():
    result = search8_seeded(WORKED_LEFT, WORKED_PARTIAL, supplied=WORKED_SOLUTION)
    assert result.hits == 1
    candidate = result.candidates[0]
    target, neg = _worked_target_entries()
    assert candidate.matrix.entries in (target, neg)
    rep = verify(candidate.matrix)
    assert rep.is_euler_magic and rep.is_proper
    assert rep.gamma == 786656


def test_search8_bad_supplied_solution_rejected():
    with pytest.raises(ValueError):
        search8_seeded(WORKED_LEFT, WORKED_PARTIAL, supplied=(1, 2, 3))


def test_search8_rejects_negative_height():
    # a negative height used to read as "no grid" and scan nothing
    with pytest.raises(ValueError, match="height must be nonnegative, got -3"):
        search8_seeded(WORKED_LEFT, WORKED_PARTIAL, height=-3)


def test_search8_rejects_height_above_the_bound_before_any_offset(monkeypatch):
    def no_offsets(height):
        raise AssertionError("offsets built before the height was checked")

    monkeypatch.setattr(search, "_bounded_height_offsets", no_offsets)
    with pytest.raises(ValueError, match=f"height must be at most {MAX_HEIGHT}, got 101"):
        search8_seeded(WORKED_LEFT, WORKED_PARTIAL, height=MAX_HEIGHT + 1)


def test_search8_grid_refinds_solution():
    center = (Fraction(13, 15), Fraction(-14, 15))
    result = search8_seeded(WORKED_LEFT, WORKED_PARTIAL, height=2, center=center)
    target, neg = _worked_target_entries()
    found = [c for c in result.candidates if c.matrix.entries in (target, neg)]
    assert found
    assert result.iterations == len(_bounded_height_offsets(2)) ** 2


@pytest.mark.parametrize("workers", [1, 2])
def test_search8_counts_a_refound_supplied_point_twice(workers):
    # the supplied point and the grid's centre are one matrix: hits counts both
    # finds, and the ranked candidates keep one
    result = search8_seeded(WORKED_LEFT, WORKED_PARTIAL, supplied=WORKED_SOLUTION, height=1,
                            center=WORKED_SOLUTION[:2], workers=workers)
    assert (result.iterations, result.hits, len(result.candidates)) == (10, 2, 1)


def test_search8_worker_determinism():
    center = (Fraction(13, 15), Fraction(-14, 15))
    serial = search8_seeded(WORKED_LEFT, WORKED_PARTIAL, height=2, center=center)
    parallel = search8_seeded(
        WORKED_LEFT, WORKED_PARTIAL, height=2, center=center, workers=3
    )
    assert serial == parallel


def test_search8_rejects_obstructed_left():
    with pytest.raises(ValueError):
        search8_seeded((1,) * 8, WORKED_PARTIAL)
    with pytest.raises(ValueError):
        search8_seeded((1, 0, 0, 1, 1, 1, 1, 1), WORKED_PARTIAL)


def test_bounded_height_offsets():
    offsets = _bounded_height_offsets(2)
    expected = sorted(
        {
            Fraction(0),
            Fraction(1, 2),
            Fraction(-1, 2),
            Fraction(1),
            Fraction(-1),
            Fraction(2),
            Fraction(-2),
        },
        key=lambda x: (abs(x), x),
    )
    assert offsets == expected
    assert offsets[0] == 0
    assert _bounded_height_offsets(0) == [Fraction(0)]


def test_candidate_json_shape():
    result = search8_seeded(WORKED_LEFT, WORKED_PARTIAL, supplied=WORKED_SOLUTION)
    payload = _candidate_json(result.candidates[0])
    parsed = json.loads(_canonical_json(payload))
    assert parsed["score"] == 64
    assert parsed["gamma"] == "786656"
    assert len(parsed["matrix"]) == 8
    assert all(len(row) == 8 for row in parsed["matrix"])
    assert all(isinstance(x, str) for row in parsed["matrix"] for x in row)
    summary = json.loads(_canonical_json(_summary_json(result)))
    assert summary == {
        "summary": True,
        "iterations": 1,
        "hits": 1,
        "near_misses": 0,
        "best_score": 64,
    }


def test_canonical_json_is_compact_and_sorted():
    text = _canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}'
