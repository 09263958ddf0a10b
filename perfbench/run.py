"""The repository benchmark: three batch workloads, each invocation a fresh process.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is search8-grid, search5-cayley or certify; `all` runs each in turn and
prints one table.
The seed fixes the inputs.  A run starts fresh child interpreters
(perfbench/child.py) one after another until the next one would
end past S seconds, always at least one (one untraced and one traced child
per round with --trace 1).  Each round's children are pinned to the next
of the CPUs the runner may use.  Every metric is the median over the run's
children.  Times are rescaled to a reference machine speed measured during
each span (see child.py); the times as measured are printed on '#' lines.
Every child's output is checked; see check().

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics untraced, the per-layer metrics
with --trace 1.  Lines before it start with '#' and give the environment,
sample counts, spreads, digests and failed_frac.  A traced run also writes
its spans to .perfbench/trace-NAME-seedN.json in the checkout.

The package is run from the checkout's src/ (it is not installed); without
src/eulermagic the runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("search8-grid", "search5-cayley", "certify")

# "tiny" is for perfbench/smoke.py; benchmark runs use "full"
SIZES = {
    "full": {"height": 10, "iterations": 2000, "a_max": 3, "points": 200},
    "tiny": {"height": 1, "iterations": 20, "a_max": 1, "points": 5},
}

# The search inputs are drawn from this many variants per size, so that the
# exact stdout of every one of them is recorded in digests.json.
SEARCH_VARIANTS = 16

# search5 samples per invocation rerun untimed through the public Cayley
# functions, whose matrices and verdicts must match digests.json
CAYLEY_SAMPLES = 8

CHILD_TIMEOUT_S = 150

# the worked 8x8 example (fixtures/search8.txt)
SEARCH8_LEFT = ("0", "1", "1", "1", "1", "1", "-1", "5")
SEARCH8_PARTIAL = ("3", "-2", "-4", "5", "6")
SEARCH8_SOLUTION = (Fraction(13, 15), Fraction(-14, 15), Fraction(-23, 5))

# enumerate_w1(a_max) sizes, as stated in tests/test_acceptance.py for a_max = 3
W1_TUPLES = {1: 1088, 3: 104576}

CERTIFICATE = {
    "main-identity": "PASS",
    "beta-s-p-reduction": "PASS",
    "elimination-identity": "PASS",
    "reduction-produces-elimination": "PASS",
    "sqrt-3-irrational": "AXIOM",
}

# gamma of each fixture, as pinned in tests/test_acceptance.py and tests/test_cli.py
FIXTURE_GAMMAS = {
    "euler4.txt": "8515",
    "family8.txt": "143072",
    "five5_1.txt": "20449",
    "five5_2.txt": "30625",
    "five5_3.txt": "140625",
    "five5_4.txt": "253009",
    "five5_5.txt": "390625",
    "search8.txt": "786656",
}

# end-to-end metric -> unit, each the median over a run's untraced children.
# Times are in reference seconds: the time as measured, rescaled by the
# machine speed probed during it (child.py).  On a shared 2-CPU machine the
# same code ran up to 1.5x slower for stretches of seconds to minutes, and
# no statistic of raw times within a run removed a stretch longer than the
# run.  setup_s, the import time, is rescaled the same way.
END_TO_END = {
    "wall_ref_s": "s",
    "items_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# the same medians as measured, printed on '#' lines only
AS_MEASURED = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_measured_s": "s",
}

# traced layer -> which of its statistics are per-layer metrics
TIMED_LAYERS = {
    "family8.improper_witnesses": ("self_s",),
    "family8.diag_forms": ("calls", "self_s"),
    "poly.substitute": ("calls", "self_s"),
    "search.search8_seeded": ("self_s",),
    "search.search5_cayley": ("self_s",),
    "cayley.cayley": ("calls", "self_s"),
    "matrices.mat_inverse": ("calls", "self_s"),
    "matrices.rescale_primitive": ("calls", "self_s"),
    "matrices.mat_mul": ("calls", "self_s"),
    "verify.verify": ("calls", "self_s"),
    "family8.enumerate_w1": ("self_s",),
    "family8.w1_checker": ("calls", "self_s"),
    "family8.four_parameter_family": ("calls", "self_s"),
    "cli.main": ("self_s",),
}

PER_LAYER_UNITS = {
    **{f"{layer}.{field}": ("count" if field == "calls" else "s")
       for layer, fields in TIMED_LAYERS.items() for field in fields},
    "poly.new.count": "count",
    "verify.euler_magic_ratio": "ratio",
    "search.hit_ratio": "ratio",
    "search.near_miss_ratio": "ratio",
    "untraced_s": "s",
    "trace_overhead_s": "s",
}


class BenchError(Exception):
    """A child that failed or whose output failed its check."""


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def bounded_height_offsets(height: int) -> set:
    """0 and every reduced n/d with 1 <= |n| <= height and 1 <= d <= height."""
    return {Fraction(n, d) for n in range(-height, height + 1) for d in range(1, height + 1)}


def family_x(q, r, t, u):
    """X of the four-parameter family, written out from its definition."""
    return (7 * q * q + 7 * r * r + 21 * q * t - 7 * r * t + 34 * t * t - 7 * q * u
            - 21 * t * u + 4 * u * u + 7 * q + 21 * r - 7 * u + 34)


def is_degenerate(point) -> bool:
    """u = 0 or X = 0: outside the family's domain, rejected by the program."""
    q, r, t, u = (Fraction(x) for x in point)
    return u == 0 or family_x(q, r, t, u) == 0


def make_spec(workload: str, seed: int, size: str) -> dict:
    """The child's inputs for this seed, plus what the runner checks them against."""
    params = SIZES[size]
    variant = seed % SEARCH_VARIANTS
    if workload == "search8-grid":
        # an integer shift of at most the grid height keeps the known solution
        # (13/15, -14/15) on the grid, so every run has a verified hit
        height = params["height"]
        rng = random.Random(f"search8-grid/{variant}")
        center = [SEARCH8_SOLUTION[i] + rng.randint(-height, height) for i in (0, 1)]
        argv = ["search8", "--left", *SEARCH8_LEFT, "--partial", *SEARCH8_PARTIAL,
                "--solution", *(str(x) for x in SEARCH8_SOLUTION),
                "--center", *(str(x) for x in center),
                "--height", str(height), "--workers", "1"]
        items = len(bounded_height_offsets(height)) ** 2 + 1
        return {"workload": workload, "kind": "search", "items": items,
                "commands": [{"argv": argv, "items": items}]}
    if workload == "search5-cayley":
        iterations = params["iterations"]
        argv = ["search5", "--seed", str(variant), "--iterations", str(iterations),
                "--workers", "1"]
        return {"workload": workload, "kind": "search", "items": iterations,
                "commands": [{"argv": argv, "items": iterations}],
                "cayley_check": {"seed": variant, "samples": CAYLEY_SAMPLES}}
    if workload == "certify":
        rng = random.Random(f"certify/{seed}")
        points = [[str(Fraction(rng.randint(-20, 20), rng.randint(1, 6))) for _ in range(4)]
                  for _ in range(params["points"])]
        a_max = params["a_max"]
        items = W1_TUPLES[a_max] + len(points) + len(CERTIFICATE) + len(FIXTURE_GAMMAS)
        return {"workload": workload, "kind": "certify", "a_max": a_max, "points": points,
                "fixtures": sorted(FIXTURE_GAMMAS), "items": items}
    raise ValueError(f"unknown workload {workload!r}")


def digest_key(argv) -> str:
    return " ".join(argv)


def cayley_key(check: dict) -> str:
    return f"cayley-check --seed {check['seed']} --samples {check['samples']}"


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# children and their checks
# ----------------------------------------------------------------------

def run_child(spec: dict, trace: bool, cpu=None) -> dict:
    """One child, pinned to `cpu` if given; its parsed result line."""
    payload = json.dumps({**spec, "trace": trace})
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run([sys.executable, CHILD, payload], cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                              preexec_fn=pin)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    lines = proc.stdout.decode("utf-8").splitlines()
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def check(spec: dict, result: dict, digests: dict) -> None:
    """Raise BenchError unless the child's outputs are the correct ones."""
    if spec["kind"] == "search":
        for command, code, digest in zip(spec["commands"], result["exit_codes"],
                                         result["digests"]):
            key = digest_key(command["argv"])
            if code != 0:
                raise BenchError(f"`{key}` exited with code {code}")
            if key not in digests:
                raise BenchError(f"no recorded digest for `{key}`; run perfbench/record_digests.py")
            if digest != digests[key]:
                raise BenchError(f"`{key}`: stdout digest {digest} differs from the recorded one")
        if len(result["digests"]) != len(spec["commands"]):
            raise BenchError("search results missing")
        if "cayley_check" in spec:
            check_cayley(spec["cayley_check"], result["cayley_check"], digests)
        return

    outcome = result["outcome"]
    if outcome["tuples"] != W1_TUPLES[spec["a_max"]]:
        raise BenchError(f"enumerate_w1 gave {outcome['tuples']} tuples")
    if outcome["checker_true"] != outcome["tuples"]:
        raise BenchError(f"w1 checker true on {outcome['checker_true']} of {outcome['tuples']}")
    for point, got in zip(spec["points"], outcome["family"]):
        degenerate = is_degenerate(point)
        if degenerate != (got[0] == "degenerate"):
            raise BenchError(f"family point {point}: got {got}")
        if not degenerate and (got[0] is not True or got[1] == "0"):
            raise BenchError(f"family point {point} is not Euler magic: {got}")
    if len(outcome["family"]) != len(spec["points"]):
        raise BenchError("family results missing")
    if dict(map(tuple, outcome["certificate"])) != CERTIFICATE:
        raise BenchError(f"certificate lines {outcome['certificate']}")
    for name, is_magic, gamma in outcome["fixtures"]:
        if not is_magic or gamma != FIXTURE_GAMMAS[name]:
            raise BenchError(f"fixture {name}: euler_magic={is_magic} gamma={gamma}")
    if len(outcome["fixtures"]) != len(FIXTURE_GAMMAS):
        raise BenchError("fixture results missing")


def check_cayley(check: dict, got: dict, digests: dict) -> None:
    """The search5 samples rerun through the public Cayley pipeline (see child.py)."""
    key = cayley_key(check)
    samples = got["samples"]
    if len(samples) != check["samples"]:
        raise BenchError(f"`{key}`: {len(samples)} samples")
    if not all(sample["orthogonal"] for sample in samples):
        raise BenchError(f"`{key}`: a Cayley matrix is not orthogonal")
    # the fail path of verify must be taken: at the default bounds hits are rare
    if all(sample["euler_magic"] for sample in samples):
        raise BenchError(f"`{key}`: verify failed no sample")
    if key not in digests:
        raise BenchError(f"no recorded digest for `{key}`; run perfbench/record_digests.py")
    if got["digest"] != digests[key]:
        raise BenchError(f"`{key}`: digest {got['digest']} differs from the recorded one")


def warm_up() -> None:
    """Compile the package's bytecode once, outside every timed child."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, 'src'); import eulermagic.cli"],
                   cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def end_to_end_samples(spec: dict, result: dict) -> dict:
    return {
        "wall_ref_s": result["wall_ref_s"],
        "items_per_ref_s": spec["items"] / result["work_ref_s"],
        "setup_s": result["setup_ref_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "wall_s": result["wall_s"],
        "items_per_s": spec["items"] / result["work_s"],
        "setup_measured_s": result["setup_s"],
    }


def per_layer_samples(result: dict) -> dict:
    layers = result["trace"]["layers"]
    counts = result["trace"]["counts"]
    # self times in reference seconds, like wall_ref_s
    speed = result["work_ref_s"] / result["work_s"]
    out = {}
    for layer, fields in TIMED_LAYERS.items():
        for field in fields:
            value = layers.get(layer, {}).get(field, 0)
            out[f"{layer}.{field}"] = value * speed if field == "self_s" else value
    out["poly.new.count"] = counts["poly.new"]
    verify_calls = layers["verify.verify"]["calls"]
    out["verify.euler_magic_ratio"] = (
        counts["verify.euler_magic"] / verify_calls if verify_calls else 0.0)
    # base: the iterations of every search in the invocation
    summaries = result.get("summaries", ())
    iterations = sum(summary["iterations"] for summary in summaries)
    for name, key in (("search.hit_ratio", "hits"), ("search.near_miss_ratio", "near_misses")):
        hits = sum(summary[key] for summary in summaries)
        out[name] = hits / iterations if iterations else 0.0
    return out


def medians(samples: list) -> dict:
    """Per metric, the median over samples; a count stays a whole number."""
    out = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        integral = all(isinstance(v, int) for v in values)
        out[name] = (statistics.median_low if integral else statistics.median)(values)
    return out


def spread_note(values: list) -> str:
    return f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


# ----------------------------------------------------------------------
# a run
# ----------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool, size: str,
            digests: dict) -> dict:
    """Run children for about `seconds`; returns the result object and prints notes."""
    spec = make_spec(workload, seed, size)
    untraced, traced, seen_digests = [], [], set()
    attempted = failed = 0
    # Children are pinned to the allowed CPUs in turn, one CPU per round.
    # Unpinned, every child ran on its parent's CPU; on a shared 2-CPU machine
    # one CPU ran a fixed loop up to 1.7x slower than the other for minutes,
    # which changed sides over time.
    cpus = sorted(os.sched_getaffinity(0))
    rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        cpu = cpus[rounds % len(cpus)]
        rounds += 1
        for traced_child in ((False, True) if trace else (False,)):
            attempted += 1
            try:
                result = run_child(spec, traced_child, cpu)
                check(spec, result, digests)
            except BenchError as exc:
                failed += 1
                print(f"# {workload}: invocation {attempted} failed: {exc}", file=sys.stderr)
                continue
            seen_digests.add(result["digest"])
            (traced if traced_child else untraced).append(result)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break

    if len(seen_digests) > 1:
        # repeats, and traced against untraced children, must agree byte for byte
        print(f"# {workload}: outputs differ between children: {sorted(seen_digests)}",
              file=sys.stderr)
        failed = attempted
    if not untraced or (trace and not traced):
        raise BenchError(f"{workload}: no invocation succeeded")

    print(f"# {workload} seed={seed} size={size} items={spec['items']} "
          f"digest={sorted(seen_digests)[0]} untraced={len(untraced)} traced={len(traced)}")
    if workload == "certify":
        print(f"# certify degenerate family draws = {sum(map(is_degenerate, spec['points']))} "
              f"of {len(spec['points'])}")
    print(f"# {workload} failed_frac = {failed / attempted} ratio "
          f"({failed} of {attempted} invocations)")

    if trace:
        samples = [per_layer_samples(r) for r in traced]
        metrics = medians(samples)
        notes = {name: spread_note([s[name] for s in samples]) for name in metrics}
        # in reference seconds, like wall_ref_s
        untraced_walls = [r["wall_ref_s"] for r in untraced]
        traced_walls = [r["wall_ref_s"] for r in traced]
        metrics["untraced_s"] = statistics.median(untraced_walls)
        metrics["trace_overhead_s"] = statistics.median(traced_walls) - metrics["untraced_s"]
        notes["untraced_s"] = spread_note(untraced_walls)
        notes["trace_overhead_s"] = "median traced minus median untraced"
        units = PER_LAYER_UNITS
        write_trace(workload, seed, traced)
    else:
        samples = [end_to_end_samples(spec, r) for r in untraced]
        metrics = {name: statistics.median(s[name] for s in samples) for name in END_TO_END}
        notes = {name: spread_note([s[name] for s in samples]) for name in samples[0]}
        units = END_TO_END
        for name, unit in AS_MEASURED.items():
            value = statistics.median(s[name] for s in samples)
            print(f"# {workload} {name} = {value!r} {unit} ({notes[name]}, as measured)")
    for name, value in metrics.items():
        print(f"# {workload} {name} = {value!r} {units[name]} ({notes[name]})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def write_trace(workload: str, seed: int, traced: list) -> None:
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "environment": environment(),
                   "children": [r["trace"] for r in traced]}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "eulermagic", "__init__.py")):
        print(f"error: no eulermagic sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    warm_up()
    digests = load_digests()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: measure(w, args.seed, args.seconds, bool(args.trace), args.size, digests)
                   for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
