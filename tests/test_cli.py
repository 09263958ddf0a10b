"""End-to-end tests for the command line interface."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from eulermagic import cli, family8, permutations, search
from eulermagic.matrices import parse_matrix_text
from eulermagic.permutations import MAX_PERM_SIZE
from eulermagic.poly import parse_poly
from eulermagic.search import MAX_HEIGHT

from conftest import FIXTURES, load_fixture


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SEARCH8_WORKED = ["search8", "--left", "0", "1", "1", "1", "1", "1", "-1", "5",
                   "--partial", "3", "-2", "-4", "5", "6"]


def test_verify_proper_fixture(capsys):
    code, out, _ = run_cli(capsys, "verify", str(FIXTURES / "euler4.txt"))
    assert code == 0
    assert "gamma: 8515" in out
    assert "proper: true" in out


def test_verify_improper_fixture_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", str(FIXTURES / "five5_1.txt"))
    assert code == 0
    assert "proper: false" in out
    assert "distinct_squares: 24" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", str(FIXTURES / "euler4.txt"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == "8515"
    assert payload["euler_magic"] is True


def test_verify_non_magic_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n0 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(bad))
    assert code == 1
    assert "euler_magic: false" in out


def test_verify_malformed_exits_two(tmp_path, capsys):
    bad = tmp_path / "ragged.txt"
    bad.write_text("1 2\n3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert "error" in err


def test_verify_non_square_exits_two(tmp_path, capsys):
    wide = tmp_path / "wide.txt"
    wide.write_text("1 2 3\n4 5 6\n", encoding="utf-8")
    assert run_cli(capsys, "verify", str(wide)) == (
        2, "", "error: matrix must be square, got 2x3\n")


def test_verify_missing_file_exits_two(capsys):
    assert run_cli(capsys, "verify", "no-such-file.txt") == (
        2, "", "error: cannot read no-such-file.txt: "
               "[Errno 2] No such file or directory: 'no-such-file.txt'\n")


def test_family_showcase_point(capsys):
    code, out, _ = run_cli(capsys, "family", "-55", "-11", "-27", "-148")
    assert code == 0
    assert "X: 23088" in out
    assert "proper: true" in out
    matrix_lines = [
        line for line in out.splitlines()
        if len(line.split()) == 8 and not line.startswith("right:")
    ]
    printed = parse_matrix_text("\n".join(matrix_lines[:8]))
    fixture = parse_matrix_text((FIXTURES / "family8.txt").read_text(encoding="utf-8"))
    neg = tuple(tuple(-x for x in row) for row in fixture.entries)
    assert printed.entries in (fixture.entries, neg)


def test_family_json(capsys):
    code, out, _ = run_cli(capsys, "family", "0", "0", "0", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["X"] == "31"
    assert payload["report"]["euler_magic"] is True


def test_family_degenerate_exits_two(capsys):
    code, _, err = run_cli(capsys, "family", "0", "0", "0", "0")
    assert code == 2
    assert "error" in err


def test_family_non_rational_argument_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["family", "x", "1", "1", "1"])
    assert info.value.code == 2
    assert "not a rational number: 'x'" in capsys.readouterr().err


def test_family_accepts_negative_rationals(capsys):
    code, out, _ = run_cli(capsys, "family", "1/2", "3", "-2", "7")
    assert code == 0
    assert "euler_magic: true" in out


@pytest.mark.parametrize("value", ["3", "-14/15", ".5", "-.5"])
def test_arguments_take_integers_fractions_and_decimals(capsys, value):
    code, out, _ = run_cli(capsys, "family", "1/2", "3", value, "7")
    assert code == 0
    assert "euler_magic: true" in out


@pytest.mark.parametrize("argv", [
    ["family", "1e100000000", "1", "1", "1"],
    [*_SEARCH8_WORKED[:-1], "1e100000000"],
    [*_SEARCH8_WORKED, "--solution", "1", "1", "1e100000000"],
    [*_SEARCH8_WORKED, "--height", "1", "--center", "1e100000000", "0"],
])
def test_exponent_notation_argument_is_a_usage_error(capsys, argv):
    # Fraction would accept the token and build 10^100000000
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert "not a rational number" in capsys.readouterr().err


def test_results_beyond_the_int_str_digit_limit_print_in_full(tmp_path, capsys):
    # entries of about 2,200 digits give gamma and X of more than 4,300, the
    # interpreter's default limit for int <-> str conversion
    scale = 10**2200
    rows = [[x * scale for x in row] for row in load_fixture("euler4.txt").entries]
    big = tmp_path / "euler4_scaled.txt"
    big.write_text("\n".join(" ".join(map(str, row)) for row in rows), encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "verify", str(big))
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "gamma: 8515" + "0" * 4400
    assert "euler_magic: true\nproper: true" in out
    code, out, err = run_cli(capsys, "family", "1", "2", "3", "1" + "0" * 1200)
    assert (code, err) == (0, "")
    assert "euler_magic: true" in out and max(map(len, out.splitlines())) > 4300
    assert sys.get_int_max_str_digits() == limit


def test_overlong_numbers_exit_two_without_echoing_them(tmp_path, capsys):
    token = "7" * 4301
    long_entry = tmp_path / "long.txt"
    long_entry.write_text(f"{token} 1\n1 1\n", encoding="utf-8")
    assert run_cli(capsys, "verify", str(long_entry)) == (
        2, "", "error: line 1: cannot parse matrix entry "
               "(a number with more than 4300 digits)\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["family", "1", "2", "3", f"1/{token}"])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert "argument u: a number with more than 4300 digits" in err and token not in err
    # argparse's own int() arguments keep the interpreter's limit
    with pytest.raises(SystemExit) as info:
        cli.main(["perm", token])
    assert info.value.code == 2
    assert "argument n: invalid int value" in capsys.readouterr().err


def test_zero_denominator_exits_two(tmp_path, capsys):
    zero = tmp_path / "zero.txt"
    zero.write_text("1/0 1\n1 1\n", encoding="utf-8")
    assert run_cli(capsys, "verify", str(zero)) == (
        2, "", "error: line 1: cannot parse matrix entry (zero denominator: '1/0')\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["family", "1/0", "1", "1", "1"])
    assert info.value.code == 2
    assert "argument q: zero denominator: '1/0'" in capsys.readouterr().err


def test_prove3_text(capsys):
    code, out, _ = run_cli(capsys, "prove3")
    assert code == 0
    assert out.count("PASS") == 4
    assert "AXIOM" in out


def test_prove3_json(capsys):
    code, out, _ = run_cli(capsys, "prove3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [entry["status"] for entry in payload] == [
        "PASS", "PASS", "PASS", "PASS", "AXIOM",
    ]


def test_prove3_negative_control(capsys, monkeypatch):
    # sanity check that a failing identity would be visible in the exit code
    from eulermagic.certificates import CertificateLine

    def broken():
        return [CertificateLine("main-identity", "FAIL", "1")]

    monkeypatch.setattr(cli, "nonexistence_certificate", broken)
    code, out, _ = run_cli(capsys, "prove3")
    assert code == 1


def test_perm_five(capsys):
    code, out, _ = run_cli(capsys, "perm", "5")
    assert code == 0
    assert "images: 2 1 3 5 4" in out
    assert "gamma: 1" in out
    assert "euler_magic: true" in out


def test_perm_json_payload(capsys):
    code, out, _ = run_cli(capsys, "perm", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"images", "matrix", "report"}
    assert payload["images"] == [2, 3, 4, 5, 1, 6]
    assert (payload["matrix"]["rows"], payload["matrix"]["cols"]) == (6, 6)
    assert payload["report"]["euler_magic"] is True


def test_perm_three_exits_two(capsys):
    code, _, err = run_cli(capsys, "perm", "3")
    assert code == 2
    assert "error" in err


def test_search5_stream_shape(capsys):
    code, out, _ = run_cli(
        capsys, "search5", "--seed", "3", "--iterations", "40",
        "--numerator-bound", "6", "--denominator-bound", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["summary"] is True
    assert summary["iterations"] == 40
    for line in lines[:-1]:
        candidate = json.loads(line)
        assert "matrix" in candidate and "score" in candidate


def test_search5_hit_path_is_pinned(capsys):
    # at bounds 1/1 samples land on signed permutation matrices, so one is
    # emitted: this pins candidate emission, ranking and the canonical sign
    code, out, _ = run_cli(
        capsys, "search5", "--seed", "0", "--numerator-bound", "1",
        "--denominator-bound", "1", "--iterations", "500",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["score"] == 2
    assert lines[1] == (
        '{"best_score":2,"hits":1,"iterations":500,"near_misses":24,"summary":true}')
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bfca2362a87ed73ad583dd71cd1cc1163bb9b8c33c9a6ffbfd464274adc76bec")


# At the default bounds no sample is a hit or a near miss, so each stdout is
# the bare summary line (recorded before the sampler moved to the integer
# Cayley core).  At bounds 1/1 seeds 0-2 emit 1, 2 and 0 candidates and 24, 23
# and 34 near misses, so those pins tie stdout to the sampled matrices.
_SEARCH5_500 = {
    (): dict.fromkeys(
        "012", "d2690905744ea377d7a52ca9e665cdbbe0bbc6e7b428899fa372f9b036a88320"),
    ("--numerator-bound", "1", "--denominator-bound", "1"): {
        "0": "bfca2362a87ed73ad583dd71cd1cc1163bb9b8c33c9a6ffbfd464274adc76bec",
        "1": "da00232ee82b836a03e704637d71c34f869f0abf032005ebf775b79c469013b0",
        "2": "95bd06a044e9bd6e85b9058d3d5e05e6f45a9f8fbb6134502bad2636dc17a232",
    },
}


@pytest.mark.parametrize("seed", ["0", "1", "2"])
@pytest.mark.parametrize("bounds", list(_SEARCH5_500))
def test_search5_stdout_is_pinned(capsys, seed, bounds):
    code, out, _ = run_cli(capsys, "search5", "--seed", seed, "--iterations", "500", *bounds)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SEARCH5_500[bounds][seed]


def test_search5_replays_the_benchmark_digests(capsys):
    # the benchmark's search5 output gate, read only: every recorded input, tiny
    # and full-size (2,000 samples) alike, prints the recorded stdout byte for byte
    path = FIXTURES.parent / "perfbench" / "digests.json"
    digests = json.loads(path.read_text(encoding="utf-8"))
    keys = [key for key in digests if key.startswith("search5 ")]
    assert sum(" --iterations 2000 " in key for key in keys) == 16
    for key in keys:
        code, out, _ = run_cli(capsys, *key.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digests[key], key


def test_search8_replays_the_benchmark_digests(capsys):
    # the benchmark's search8 output gate, read only: the worked example's
    # supplied solution plus a grid around each recorded center, at both sizes
    path = FIXTURES.parent / "perfbench" / "digests.json"
    digests = json.loads(path.read_text(encoding="utf-8"))
    keys = [key for key in digests if key.startswith("search8 ")]
    assert len(keys) == 24 and sum(" --height 10 " in key for key in keys) == 15
    for key in keys:
        code, out, _ = run_cli(capsys, *key.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digests[key], key


def test_search5_zero_bound_exits_two(capsys):
    assert run_cli(capsys, "search5", "--seed", "0", "--numerator-bound", "0") == (
        2, "", "error: bounds must be at least 1\n")


@pytest.mark.parametrize("option, bound", [("--numerator-bound", str(10**30)),
                                           ("--denominator-bound", str(2**70))])
def test_search5_bound_beyond_the_generator_exits_two(capsys, option, bound):
    assert run_cli(capsys, "search5", "--seed", "0", option, bound) == (
        2, "", "error: bounds exceed the generator's 2^64 outputs: the numerator bound "
               "must be below 2^63, the denominator bound at most 2^64\n")


def test_search5_requires_seed(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["search5", "--iterations", "5"])
    assert info.value.code == 2


def test_search5_has_no_score_threshold(capsys):
    # every candidate line carries its score, so a reader filters the output
    with pytest.raises(SystemExit) as info:
        cli.main(["search5", "--seed", "1", "--score-threshold", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --score-threshold 1" in capsys.readouterr().err


def test_search5_internal_error_is_not_a_usage_error(monkeypatch):
    # a sample on both diagonals has P * P^t = det^2 * I with det > 0, so verify
    # must call it Euler magic; a sample it rejects is a bug, not a miss
    real_verify = search.verify
    monkeypatch.setattr(search, "verify",
                        lambda m: real_verify(m)._replace(is_euler_magic=False))
    with pytest.raises(RuntimeError,
                       match="internal error: a sample on both diagonals failed verification"):
        cli.main(["search5", "--seed", "5", "--numerator-bound", "1",
                  "--denominator-bound", "1", "--iterations", "1000"])


def test_search8_supplied_solution(capsys):
    code, out, _ = run_cli(
        capsys, "search8", "--left", "0", "1", "1", "1", "1", "1", "-1", "5",
        "--partial", "3", "-2", "-4", "5", "6",
        "--solution", "13/15", "-14/15", "-23/5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1])["hits"] == 1
    candidate = json.loads(lines[0])
    assert candidate["score"] == 64
    assert candidate["gamma"] == "786656"


def test_search8_internal_error_is_not_a_usage_error(monkeypatch):
    # a solved grid point that fails its exact re-verification is a bug, which
    # must surface as such instead of exiting 2 like bad input
    real_verify = family8.verify
    monkeypatch.setattr(family8, "verify",
                        lambda m: real_verify(m)._replace(is_euler_magic=False))
    with pytest.raises(RuntimeError, match="internal error: solved point failed verification"):
        cli.main([*_SEARCH8_WORKED, "--height", "1", "--center", "13/15", "-14/15"])


def test_search8_supplied_point_matches_the_grid_candidate(capsys):
    # verify's verdict on the supplied point gives the candidate the grid's
    # w-solve finds at the same (u, v), apart from its sample index
    code, out, _ = run_cli(capsys, *_SEARCH8_WORKED, "--solution", "13/15", "-14/15", "-23/5")
    assert code == 0
    supplied, summary = map(json.loads, out.splitlines())
    assert (summary["hits"], summary["near_misses"], summary["iterations"]) == (1, 0, 1)
    code, out, _ = run_cli(capsys, *_SEARCH8_WORKED, "--height", "1",
                           "--center", "13/15", "-14/15")
    assert code == 0
    grid = [json.loads(line) for line in out.splitlines()[:-1]]
    assert supplied["sample_index"] == 0
    assert [dict(c, sample_index=0) for c in grid
            if c["source_params"] == supplied["source_params"]] == [supplied]


def test_search8_improper_left_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "search8", "--left", "1", "1", "1", "1", "1", "1", "1", "1",
        "--partial", "1", "2", "3", "4", "5",
    )
    assert code == 2
    assert "error" in err


def test_search8_negative_height_exits_two(capsys):
    assert run_cli(capsys, *_SEARCH8_WORKED, "--height", "-3") == (
        2, "", "error: height must be nonnegative, got -3\n")


def test_oversized_inputs_exit_two_before_allocating(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("built before the size was checked")

    monkeypatch.setattr(permutations, "perm_matrix", never)
    monkeypatch.setattr(search, "_bounded_height_offsets", never)
    assert run_cli(capsys, "perm", str(MAX_PERM_SIZE + 1)) == (
        2, "", f"error: construction supports n <= {MAX_PERM_SIZE}, got {MAX_PERM_SIZE + 1}\n")
    assert run_cli(capsys, *_SEARCH8_WORKED, "--height", str(MAX_HEIGHT + 1)) == (
        2, "", f"error: height must be at most {MAX_HEIGHT}, got {MAX_HEIGHT + 1}\n")


def test_forms_all_ones_factorization(capsys):
    code, out, _ = run_cli(capsys, "forms", "1", "1", "1", "1", "1", "1", "1", "1")
    assert code == 0
    a_line = next(line for line in out.splitlines() if line.startswith("A: "))
    variables = ("p", "q", "r", "s", "t", "u", "v", "w")
    a_poly = parse_poly(a_line[3:], variables)
    p, q, r, s, t, u, v, w = (
        parse_poly(name, variables) for name in variables
    )
    assert a_poly == 16 * (p + q + t + u) * (r + s + v + w)


def test_forms_restricted_left_prints_elimination(capsys):
    code, out, _ = run_cli(
        capsys, "forms", "2", "1", "1", "4", "2", "1", "1", "-2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree_one_restriction"] is True
    assert "F" in payload and "x" in payload and "y" in payload


@pytest.mark.parametrize("left, flags, digest", [
    ("2 1 1 4 2 1 1 -2", [], "0f81dab960fd2f557ec3f00d09a0eb8eb1ffe6ab6f51728ee0ea116d9b7a95b2"),
    ("2 1 1 4 2 1 1 -2", ["--json"],
     "eecd39716a652e9565fae9f1ada2f35d34a7b1c3e58d9cfd1d01aeb31f81719d"),
    ("1 1 1 1 1 1 1 1", [], "a36c2e7c76a33305198e9644ac3ddc7da902fd3d75e3901acee2f43f84729f60"),
    ("1 1 1 1 1 1 1 1", ["--json"],
     "59cd404acb9fbb067ad5b978bdd3a4c2064b8cb8e9aaf03396c3bd4354e1eab7"),
])
def test_forms_output_is_pinned(capsys, left, flags, digest):
    # the full stdout, byte for byte: A, B and, under the restriction, x, y, F
    code, out, _ = run_cli(capsys, "forms", *left.split(), *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the full stdout, byte for byte; a verify fixture is named without its directory
_STDOUT_SHA256 = {
    "family -55 -11 -27 -148":
        "394bd61f5e1ef63ee970b20133a11e0c2ff842f8ac9ba554fdfb71cf0124882a",
    "family -55 -11 -27 -148 --json":
        "7556e27ccbfb9305752e2c84f422ee6bbbf46012191d4437a513b3958ea9200d",
    "family 1/2 3 -2 7":
        "57614a745cc9126e93616d023fca2aab631a06afb6e450421bc962a184bc929c",
    "family 1/2 3 -2 7 --json":
        "02700fb85f2d9d4b8029bb68e6c457b02ebc1e1fe174e52bb3b38530ae6d0986",
    "perm 5":
        "2ea16e6357a146922264c65172514ac1c41c66d682acffe308f7c2e8e6cb39c6",
    "perm 8 --json":
        "5e771b514a0b0fc1e849068f703c37132265ed6e28cf1a66539dfda962745732",
    "verify euler4.txt":
        "ab662cd4dc85fc600c7dbcf02ec6050e1b4b10d83be3ce5c44a8a2145f7b725a",
    "verify euler4.txt --json":
        "d72f090ac5cb1cdbea801d88d18b12461113874755b1e712cdd4315e5b962d94",
    "verify family8.txt":
        "322384bd94e780c61bef4ab20fc71ef5e5a0a1440f18f2cf96b4ec507de1d775",
    "verify family8.txt --json":
        "73e8d1bf5be0acd803c75ccd1524e55a2692e26dbda0ea253c2823af8f11e9dd",
    "verify five5_1.txt":
        "3774f70d51b888df72d96800e8f8d8174df1d6a0d08c83d5966e880d9e06b2b4",
    "verify five5_1.txt --json":
        "4734034e8dbbf0969451b3c4fc027e8f8123ae12986704eab0cf8cf6027e394b",
    "verify five5_2.txt":
        "1683dcdc8fc1922052722b4d2d88a2d259292f1056c484dd0b6cd3142f769c3f",
    "verify five5_2.txt --json":
        "6e15392ea18659f4c6f551e843cd157c689b2f92e3dea4c0aca6acdb958b1d9f",
    "verify five5_3.txt":
        "266866f531870fe6eed408902c10809d399648ed830ff3bcafb458aacdad411b",
    "verify five5_3.txt --json":
        "86fa00a2a3ac046e113f6c910898aeed5fd04bdbce6ca2c7f001ac45cb1d660e",
    "verify five5_4.txt":
        "142cd020023f423ccfbcbcc56daadabee8f5a77bb21d33130f7503c7667c998b",
    "verify five5_4.txt --json":
        "09c89ce64c54e0d6a73c1e369a9d5c604376f5ef25e1600c3afbfa893805b337",
    "verify five5_5.txt":
        "b950f1410da4cdf3278d89ecb13e6f859824682eae8b3d9ad5ce7dbf24f662af",
    "verify five5_5.txt --json":
        "631e20b1c82ac8f20e3a31e2aaf4083ae899ceced898d1179ce4995bf8ebf39b",
    "verify search8.txt":
        "bcde1215bf147414e31be050467d29c2de5ac1e91482091b015a2d83fda3ab08",
    "verify search8.txt --json":
        "8a1765ac4f0a7246c7806f24cbe42a76a483f48c3833aad40564d7ff42538d79",
}


@pytest.mark.parametrize("command", list(_STDOUT_SHA256))
def test_family_perm_and_verify_output_is_pinned(capsys, command):
    argv = command.split()
    if argv[0] == "verify":
        argv[1] = str(FIXTURES / argv[1])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _STDOUT_SHA256[command]


def test_cli_determinism_across_workers(capsys):
    for args in ([
        "search5", "--seed", "2024", "--iterations", "50",
        "--numerator-bound", "9", "--denominator-bound", "4",
    ], [*_SEARCH8_WORKED, "--height", "2", "--center", "13/15", "-14/15"]):
        code1 = cli.main(args + ["--workers", "1"])
        out1 = capsys.readouterr().out
        code2 = cli.main(args + ["--workers", "3"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
    # the search8 grid finds the worked solution, so its candidate line is compared too
    assert '"-23/5"' in out1


# each subcommand and the library call in cli that does its work
_LIBRARY_CALLS = {
    "verify": ("verify", ["verify", str(FIXTURES / "euler4.txt")]),
    "family": ("four_parameter_family", ["family", "0", "0", "0", "1"]),
    "prove3": ("nonexistence_certificate", ["prove3"]),
    "perm": ("construction_permutation", ["perm", "5"]),
    "search5": ("search5_cayley", ["search5", "--seed", "0", "--iterations", "5"]),
    "search8": ("search8_seeded", _SEARCH8_WORKED),
    "forms": ("diag_forms", ["forms", *"11111111"]),
}


@pytest.mark.parametrize("name, argv", list(_LIBRARY_CALLS.values()), ids=list(_LIBRARY_CALLS))
def test_one_bad_input_boundary(capsys, monkeypatch, name, argv):
    # main turns the library's ValueError into exit 2 for every subcommand,
    # and lets anything else, such as an internal RuntimeError, propagate
    def raising(exc):
        def call(*args, **kwargs):
            raise exc
        return call

    monkeypatch.setattr(cli, name, raising(ValueError("boom")))
    assert run_cli(capsys, *argv) == (2, "", "error: boom\n")
    monkeypatch.setattr(cli, name, raising(RuntimeError("internal error: boom")))
    with pytest.raises(RuntimeError, match="internal error: boom"):
        cli.main(argv)


def test_module_entry_point_exit_codes(tmp_path):
    root = FIXTURES.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n0 1\n", encoding="utf-8")
    exponent = tmp_path / "exponent.txt"
    exponent.write_text("1e100000000 0\n0 1\n", encoding="utf-8")
    zeros = tmp_path / "zeros.txt"
    zeros.write_text(("0 " * 80 + "\n") * 80, encoding="utf-8")
    # orthogonal, so the pair limit must refuse it before the O(n^3) row checks
    identity = tmp_path / "identity.txt"
    identity.write_text("".join(" ".join("1" if i == j else "0" for j in range(300)) + "\n"
                                for i in range(300)), encoding="utf-8")
    # a hang or a traceback on hostile input fails here instead of stalling
    for argv, expected in [
        (["verify", str(FIXTURES / "euler4.txt")], 0),
        (["verify", str(bad)], 1),
        (["verify", str(exponent)], 2),
        (["verify", str(zeros)], 2),
        (["verify", str(identity)], 2),
        (["family", "1e100000000", "1", "1", "1"], 2),
        ([*_SEARCH8_WORKED, "--height", "-1"], 2),
        ([*_SEARCH8_WORKED, "--height", str(MAX_HEIGHT + 1)], 2),
        (["perm", str(MAX_PERM_SIZE + 1)], 2),
    ]:
        done = subprocess.run([sys.executable, "-m", "eulermagic.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=30)
        assert done.returncode == expected, done.stderr
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [["perm", "9"], ["family", "0", "0", "0", "1"],
                                  ["forms", "2", "1", "1", "4", "2", "1", "1", "-2"]])
def test_closed_stdout_exits_141_quietly(argv):
    """A reader that is gone before the first write ends the run with 141,
    as a shell reports SIGPIPE, without a traceback."""
    root = FIXTURES.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "eulermagic.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=30)
    finally:
        os.close(write_end)
    assert done.returncode == 141, done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
