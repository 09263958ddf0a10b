"""Record the output digest of every search input the benchmark can generate.

Usage: python3 perfbench/record_digests.py

For each size and input variant of the two search workloads it runs the CLI
command in this process, checks the output independently of the package
(every emitted matrix is re-verified with plain Fraction arithmetic, the
summary counts the expected items, and search8 output contains the worked
solution), and writes the SHA-256 of the exact stdout bytes to
perfbench/digests.json.  For each search5 variant it also reruns the samples
that child.py reruns through the public Cayley pipeline and recomputes each
one from scratch (the xorshift64* parameters, (I - S)(I + S)^-1 by
Gauss-Jordan, the primitive rescaling and the three verify conditions)
before recording their digest.  run.py then requires every child's outputs
to match the recorded digests byte for byte.
Re-record only when search output is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from fractions import Fraction

from math import gcd, lcm

from child import cayley_samples, json_digest
from run import DIGESTS, ROOT, SEARCH_VARIANTS, SIZES, cayley_key, digest_key, make_spec

import eulermagic.cli  # noqa: E402  (child put src/ on the path)

MASK64 = (1 << 64) - 1


def sample_params(seed: int, index: int, count=10, numerators=120, denominators=8) -> list:
    """search5's skew parameters for one sample, from the xorshift64* definition."""
    state = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64 or 0x9E3779B97F4A7C15

    def uniform(lo, hi):
        nonlocal state
        x = state
        x ^= x >> 12
        x ^= (x << 25) & MASK64
        x ^= x >> 27
        state = x
        return lo + ((x * 0x2545F4914F6CDD1D) & MASK64) % (hi - lo + 1)

    out = []
    for _ in range(count):
        numerator = uniform(-numerators, numerators)
        out.append(Fraction(numerator, uniform(1, denominators)))
    return out


def primitive_cayley(params) -> list:
    """(I - S)(I + S)^-1 for the 5x5 skew S, scaled to coprime integers."""
    n = 5
    s = [[Fraction(0)] * n for _ in range(n)]
    values = iter(params)
    for i in range(n):
        for j in range(i + 1, n):
            s[i][j] = next(values)
            s[j][i] = -s[i][j]
    # Gauss-Jordan on [I + S | I - S]^t: solves (I + S)^t X = (I - S)^t, X^t is the result
    plus_t = [[int(i == j) + s[j][i] for j in range(n)] for i in range(n)]
    minus_t = [[int(i == j) - s[j][i] for j in range(n)] for i in range(n)]
    aug = [plus_t[i] + minus_t[i] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    rows = [[aug[j][n + i] for j in range(n)] for i in range(n)]
    scale = lcm(*(x.denominator for row in rows for x in row))
    ints = [[int(x * scale) for x in row] for row in rows]
    g = 0
    for row in ints:
        for x in row:
            g = gcd(g, abs(x))
    return [[x // g for x in row] for row in ints]


def check_cayley_samples(seed: int, samples: list) -> None:
    for index, sample in enumerate(samples):
        params = sample_params(seed, index)
        if sample["params"] != [str(x) for x in params]:
            raise AssertionError(f"sample {index}: parameters differ")
        rows = primitive_cayley(params)
        if sample["matrix"] != [[str(x) for x in row] for row in rows]:
            raise AssertionError(f"sample {index}: Cayley matrix differs")
        n = len(rows)
        gamma = sum(x * x for x in rows[0])
        orthogonal = gamma != 0 and all(
            sum(rows[i][k] * rows[j][k] for k in range(n)) == (gamma if i == j else 0)
            for i in range(n) for j in range(n))
        diagonal = sum(rows[i][i] ** 2 for i in range(n)) == gamma
        antidiagonal = sum(rows[i][n - 1 - i] ** 2 for i in range(n)) == gamma
        expected = {"gamma": str(gamma), "orthogonal": orthogonal, "diagonal": diagonal,
                    "antidiagonal": antidiagonal,
                    "euler_magic": orthogonal and diagonal and antidiagonal}
        got = {key: sample[key] for key in expected}
        if got != expected or not orthogonal:
            raise AssertionError(f"sample {index}: verdicts {got}, expected {expected}")


def euler_magic_gamma(rows) -> Fraction:
    """gamma if M * M^t = gamma * I, gamma != 0 and both diagonals square-sum to gamma."""
    n = len(rows)
    gamma = sum(x * x for x in rows[0])
    for i in range(n):
        for j in range(n):
            dot = sum(rows[i][k] * rows[j][k] for k in range(n))
            if dot != (gamma if i == j else 0):
                raise AssertionError(f"row {i} . row {j} = {dot}")
    if gamma == 0:
        raise AssertionError("zero matrix")
    if sum(rows[i][i] ** 2 for i in range(n)) != gamma:
        raise AssertionError("diagonal condition fails")
    if sum(rows[i][n - 1 - i] ** 2 for i in range(n)) != gamma:
        raise AssertionError("anti-diagonal condition fails")
    return gamma


def check_output(command: dict, stdout: str) -> None:
    *candidates, summary = [json.loads(line) for line in stdout.splitlines()]
    if not summary.get("summary") or summary["iterations"] != command["items"]:
        raise AssertionError(f"summary {summary} does not count {command['items']} items")
    matrices = []
    for candidate in candidates:
        rows = [[Fraction(x) for x in row] for row in candidate["matrix"]]
        if euler_magic_gamma(rows) != Fraction(candidate["gamma"]):
            raise AssertionError("reported gamma is wrong")
        if candidate["score"] != len({x * x for row in rows for x in row}):
            raise AssertionError("reported score is wrong")
        matrices.append(rows)
    if command["argv"][0] == "search8":
        with open(os.path.join(ROOT, "fixtures", "search8.txt"), encoding="utf-8") as handle:
            known = [[Fraction(x) for x in line.split()]
                     for line in handle if line.strip() and not line.startswith("#")]
        negated = [[-x for x in row] for row in known]
        if known not in matrices and negated not in matrices:
            raise AssertionError("the worked solution is missing from the output")


def record(spec: dict, digests: dict) -> None:
    """Check and record the digests of one search spec not yet in `digests`."""
    for command in spec["commands"]:
        key = digest_key(command["argv"])
        if key in digests:
            continue
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = eulermagic.cli.main(command["argv"])
        if code != 0:
            raise AssertionError(f"`{key}` exited with {code}")
        stdout = buffer.getvalue()
        check_output(command, stdout)
        digests[key] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        print(f"{key}: {digests[key]}", flush=True)
    check = spec.get("cayley_check")
    if check is not None and cayley_key(check) not in digests:
        key = cayley_key(check)
        samples = cayley_samples(check["seed"], check["samples"])
        check_cayley_samples(check["seed"], samples)
        digests[key] = json_digest(samples)
        print(f"{key}: {digests[key]}", flush=True)


def main() -> int:
    digests = {}
    for size in sorted(SIZES):
        for variant in range(SEARCH_VARIANTS):
            for workload in ("search8-grid", "search5-cayley"):
                record(make_spec(workload, variant, size), digests)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
