"""Unit tests for the seeded search harnesses and their determinism contract."""

import json
from fractions import Fraction

import pytest

from eulermagic import search
from eulermagic.cayley import (
    _skew_rows,
    cayley,
    cayley_integer,
    inverse_cayley,
    ortho_reduce,
    skew_from_upper,
)
from eulermagic.matrices import Matrix, mat_mul, mat_scale, rescale_primitive
from eulermagic.octonion import left_matrix, right_matrix
from eulermagic.search import (
    SearchConfig,
    Xorshift64Star,
    _bounded_height_offsets,
    canonical_json,
    candidate_to_json_dict,
    greedy_backtrack_left,
    search5_cayley,
    search8_seeded,
    stream_seed,
    summary_to_json_dict,
)
from eulermagic.verify import verify

from conftest import load_fixture

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


def test_prng_determinism_and_range():
    r1, r2 = Xorshift64Star(42), Xorshift64Star(42)
    seq1 = [r1.next_u64() for _ in range(200)]
    seq2 = [r2.next_u64() for _ in range(200)]
    assert seq1 == seq2
    assert all(0 <= v < 2**64 for v in seq1)
    assert len(set(seq1)) == 200


def test_prng_zero_seed_is_valid():
    r = Xorshift64Star(0)
    assert r.state != 0
    assert r.next_u64() != 0


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


def test_stream_seed_distinct_streams():
    seeds = [stream_seed(99, i) for i in range(50)]
    assert len(set(seeds)) == 50
    firsts = {Xorshift64Star(s).next_u64() for s in seeds}
    assert len(firsts) == 50


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(seed=1, numerator_bound=0)
    with pytest.raises(ValueError):
        SearchConfig(seed=1, denominator_bound=0)
    with pytest.raises(ValueError):
        SearchConfig(seed=1, max_iterations=-1)


def test_search5_repeat_and_worker_determinism():
    config = SearchConfig(
        seed=2024,
        numerator_bound=9,
        denominator_bound=4,
        max_iterations=60,
        score_threshold=1,
    )
    serial1 = search5_cayley(config)
    serial2 = search5_cayley(config)
    parallel = search5_cayley(config, workers=3)
    assert serial1 == serial2
    assert serial1 == parallel
    lines_serial = [canonical_json(candidate_to_json_dict(c)) for c in serial1.candidates]
    lines_parallel = [canonical_json(candidate_to_json_dict(c)) for c in parallel.candidates]
    assert lines_serial == lines_parallel
    assert canonical_json(summary_to_json_dict(serial1)) == canonical_json(
        summary_to_json_dict(parallel)
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


def test_search5_verifies_every_sample_at_unit_bounds(monkeypatch):
    # bounds 1/1 draw every skew entry from {-1, 0, 1}, the all-zero S among
    # them; its Cayley transform is I, and no sample may be dropped
    scaled, det = cayley_integer(1, skew_from_upper(5, [0] * 10).entries)
    assert det == 1
    assert rescale_primitive(Matrix(5, 5, scaled)) == Matrix.from_rows(
        [[int(i == j) for j in range(5)] for i in range(5)])
    verified = []

    def counting_verify(m):
        verified.append(m)
        return verify(m)

    monkeypatch.setattr(search, "verify", counting_verify)
    config = SearchConfig(seed=5, numerator_bound=1, denominator_bound=1,
                          max_iterations=300)
    result = search5_cayley(config)
    assert result.iterations == len(verified) == 300
    assert all(m.is_integer() and any(x != 0 for r in m.entries for x in r)
               for m in verified)


@pytest.mark.parametrize("k", range(1, 6))
def test_search5_integer_core_reaches_the_fixtures(k):
    # the hit path: skew parameters whose Cayley transform is a known 5x5
    # Euler magic matrix, pushed through the sampler's integer core
    m = load_fixture(f"five5_{k}.txt")
    negated = tuple(tuple(-x for x in row) for row in m.entries)
    for sign in (1, -1):
        _, orthogonal = ortho_reduce(mat_scale(sign, m))
        s = inverse_cayley(orthogonal)
        params = [s.entry(i, j) for i in range(5) for j in range(i + 1, 5)]
        primitive = search._search5_primitive(params)
        assert primitive.entries in (m.entries, negated)
        assert verify(primitive).is_euler_magic


@pytest.mark.parametrize("numerator_bound, denominator_bound", [(120, 8), (3, 2), (1, 1)])
def test_search5_sampler_matches_public_cayley(monkeypatch, numerator_bound,
                                               denominator_bound):
    verified = []

    def recording_verify(m):
        verified.append(m)
        return verify(m)

    monkeypatch.setattr(search, "verify", recording_verify)
    config = SearchConfig(seed=17, numerator_bound=numerator_bound,
                          denominator_bound=denominator_bound, max_iterations=300)
    search5_cayley(config)
    assert len(verified) == 300
    for index, m in enumerate(verified):
        rng = Xorshift64Star(stream_seed(config.seed, index))
        params = [rng.rational(numerator_bound, denominator_bound) for _ in range(10)]
        assert m == rescale_primitive(cayley(skew_from_upper(5, params)))


def test_search5_fills_each_skew_matrix_with_skew_from_upper(monkeypatch):
    # the parameter order of the skew matrix is written once, in the row
    # builder that skew_from_upper wraps
    calls = []

    def counting_skew_rows(n, values):
        calls.append(n)
        return _skew_rows(n, values)

    monkeypatch.setattr(search, "_skew_rows", counting_skew_rows)
    search5_cayley(SearchConfig(seed=3, max_iterations=3))
    assert calls == [5, 5, 5]


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


def test_search8_grid_refinds_solution():
    center = (Fraction(13, 15), Fraction(-14, 15))
    result = search8_seeded(WORKED_LEFT, WORKED_PARTIAL, height=2, center=center)
    target, neg = _worked_target_entries()
    found = [c for c in result.candidates if c.matrix.entries in (target, neg)]
    assert found
    assert result.iterations == len(_bounded_height_offsets(2)) ** 2


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


def test_greedy_backtrack_finds_pinned_tuple():
    bounds = [(v, v) for v in WORKED_LEFT + WORKED_PARTIAL]
    hits = greedy_backtrack_left(bounds, seed=5, max_results=4)
    assert (WORKED_LEFT, WORKED_PARTIAL) in hits


def test_greedy_backtrack_empty_when_all_zero():
    assert greedy_backtrack_left((0, 0), seed=9) == []


def test_greedy_backtrack_deterministic_and_bounded():
    target = WORKED_LEFT + WORKED_PARTIAL
    bounds = [(v - 1, v + 1) for v in target]
    run1 = greedy_backtrack_left(bounds, seed=11, max_results=3, max_nodes=100000)
    run2 = greedy_backtrack_left(bounds, seed=11, max_results=3, max_nodes=100000)
    assert run1 == run2
    assert run1
    assert len(run1) <= 3


_WIGGLE = [(v - 1, v + 1) for v in WORKED_LEFT + WORKED_PARTIAL]
_NEAR_LEFT = (0, 1, 1, 1, 1, 1, -1, 4)


@pytest.mark.parametrize("bounds, seed, max_results, max_nodes, expected", [
    # the walkthrough demo's call
    (_WIGGLE, 3, 3, 50000, [(2, -1, -3, 5, 7), (2, -3, -4, 5, 7), (2, -3, -5, 4, 6)]),
    # runs out of nodes: the third tuple is emitted by node 51, not by node 50
    (_WIGGLE, 3, 10, 50, [(2, -1, -3, 5, 7), (2, -3, -4, 5, 7)]),
    (_WIGGLE, 3, 10, 51, [(2, -1, -3, 5, 7), (2, -3, -4, 5, 7), (2, -3, -5, 4, 6)]),
    (_WIGGLE, 3, 10, 100, [(2, -1, -3, 5, 7), (2, -3, -4, 5, 7), (2, -3, -5, 4, 6),
                           (2, -3, -5, 4, 7), (3, -1, -5, 6, 7), (3, -2, -4, 5, 7),
                           (3, -2, -5, 4, 6), (3, -2, -5, 4, 7), (3, -2, -5, 6, 7)]),
])
def test_greedy_backtrack_pinned(bounds, seed, max_results, max_nodes, expected):
    hits = greedy_backtrack_left(bounds, seed=seed, max_results=max_results,
                                 max_nodes=max_nodes)
    assert hits == [(_NEAR_LEFT, partial) for partial in expected]


@pytest.mark.parametrize("seed, expected", [
    # wider bounds: the seed shuffles each +-x tie, so it picks the signs
    (1, [((0, -1, -1, 1, -1, -1, -1, 3), (1, -2, -3, 4, 5)),
         ((0, -1, -1, 1, -1, -1, -1, 3), (1, -2, -3, 4, 7)),
         ((0, -1, -1, 1, -1, -1, -1, 3), (1, -2, -3, 4, 8)),
         ((0, -1, -1, 1, -1, -1, -1, 3), (1, -2, -3, 5, 4))]),
    (2, [((0, -1, -1, -1, -1, 1, 1, 3), (1, -2, -4, 5, 6)),
         ((0, -1, -1, -1, -1, 1, 1, 3), (1, -2, -4, 5, 7)),
         ((0, -1, -1, -1, -1, 1, 1, 3), (1, -2, -4, 7, 6)),
         ((0, -1, -1, -1, -1, 1, 1, 3), (1, -2, -4, 7, 8))]),
])
def test_greedy_backtrack_pinned_signs(seed, expected):
    bounds = [(v - 2, v + 2) for v in WORKED_LEFT + WORKED_PARTIAL]
    assert greedy_backtrack_left(bounds, seed=seed, max_results=4, max_nodes=300) == expected


def test_greedy_backtrack_rejects_negative_budget():
    # raised before any assignment is tried
    with pytest.raises(ValueError, match="max_nodes"):
        greedy_backtrack_left((-1, 1), seed=1, max_results=1, max_nodes=-3)


def test_candidate_json_shape():
    result = search8_seeded(WORKED_LEFT, WORKED_PARTIAL, supplied=WORKED_SOLUTION)
    payload = candidate_to_json_dict(result.candidates[0])
    parsed = json.loads(canonical_json(payload))
    assert parsed["score"] == 64
    assert parsed["gamma"] == "786656"
    assert len(parsed["matrix"]) == 8
    assert all(len(row) == 8 for row in parsed["matrix"])
    assert all(isinstance(x, str) for row in parsed["matrix"] for x in row)
    summary = json.loads(canonical_json(summary_to_json_dict(result)))
    assert summary == {
        "summary": True,
        "iterations": 1,
        "hits": 1,
        "near_misses": 0,
        "best_score": 64,
    }


def test_canonical_json_is_compact_and_sorted():
    text = canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}'
