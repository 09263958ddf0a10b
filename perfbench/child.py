"""One workload invocation in a fresh interpreter.

Usage: python3 perfbench/child.py '<spec JSON>'

The spec comes from run.py.  The child puts the checkout's ``src/`` on its
own path (the package is not installed), times the import of ``eulermagic``
and ``eulermagic.cli``, optionally installs the tracer, runs the workload
through the public entry points, and prints one JSON line: timings, both as
measured and rescaled to a reference machine speed (see PROBE_STEPS), peak
memory, and the outputs run.py checks.  For search5 it then, untimed, reruns
a few of the seed's samples through the public Cayley functions so that
their matrices can be checked too.  Only ``os``, ``sys`` and the
built-in ``_signal`` and ``time`` are imported before the import timer
starts, so the program's own imports are all counted.
"""

import os
import sys
import _signal  # the C module behind `signal`, which would import enum before the timer
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# Machine-speed probes.  On a shared machine the same code ran up to 1.5x
# slower in stretches of seconds to minutes, so every timed span is rescaled
# to a fixed machine speed.  A fixed integer loop of PROBE_STEPS steps runs
# at both ends of each span and, from SIGALRM, every PROBE_INTERVAL_S of wall
# time inside it.  A span's reference time is its time minus the probes in
# it, times the mean probe speed over the span, divided by REFERENCE_SPEED.
# The loop is the benchmark's own, so a change to the program cannot speed
# it up.
PROBE_STEPS = 2000
PROBE_INTERVAL_S = 0.05
REFERENCE_SPEED = 4.0e6  # probe steps per second; about the median on a 2-CPU Xeon VM
PROBES = []  # (start, seconds) of every probe
_probing = False


def probe():
    global _probing
    if _probing:
        return
    _probing = True
    start = perf_counter()
    x = 1
    for i in range(PROBE_STEPS):
        x = (x * 6364136223846793005 + i) % 18446744073709551557
    PROBES.append((start, perf_counter() - start))
    _probing = False


def span_times(start, end, probes):
    """(seconds, reference seconds) of [start, end], given the probes at and in it."""
    seconds = end - start - sum(d for s, d in probes if start <= s < end)
    speed = sum(PROBE_STEPS / d for _, d in probes) / len(probes)
    return seconds, seconds * speed / REFERENCE_SPEED


if __name__ == "__main__":  # record_digests.py imports this module
    _signal.signal(_signal.SIGALRM, lambda signum, frame: probe())
    _signal.setitimer(_signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
probe()
t_start = perf_counter()
import eulermagic  # noqa: E402
import eulermagic.cli  # noqa: E402
t_imported = perf_counter()
probe()
setup_probes_end = len(PROBES)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402


def run_searches(spec):
    """Each command through the CLI with stdout captured: [(exit code, stdout text)]."""
    outputs = []
    for command in spec["commands"]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = eulermagic.cli.main(command["argv"])
        outputs.append((code, buffer.getvalue()))
    return outputs


def cayley_samples(seed, count):
    """The first `count` search5 samples of `seed` through the public Cayley pipeline.

    Each sample's skew parameters, primitive integer matrix and verify verdicts,
    as plain JSON.  search5 prints nothing for a sample that is not a hit, so
    this is what ties a search5 run's check to the matrices it computes.  An
    exception here fails the invocation: for rational skew S, I + S is always
    invertible.
    """
    search = sys.modules["eulermagic.search"]
    cayley = sys.modules["eulermagic.cayley"]
    matrices = sys.modules["eulermagic.matrices"]
    verify = sys.modules["eulermagic.verify"]
    config = search.SearchConfig(seed=seed)
    samples = []
    for index in range(count):
        rng = search.Xorshift64Star(search.stream_seed(seed, index))
        params = [rng.rational(config.numerator_bound, config.denominator_bound)
                  for _ in range(10)]
        primitive = matrices.rescale_primitive(cayley.cayley(cayley.skew_from_upper(5, params)))
        report = verify.verify(primitive)
        samples.append({
            "params": [str(x) for x in params],
            "matrix": [[str(x) for x in row] for row in primitive.entries],
            "gamma": str(report.gamma),
            "orthogonal": report.cond_orthogonal,
            "diagonal": report.cond_diagonal,
            "antidiagonal": report.cond_antidiagonal,
            "euler_magic": report.is_euler_magic,
        })
    return samples


def json_digest(value):
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def run_certify(spec, points, fixtures):
    """The paper's exact claims through the library; returns the raw outcomes."""
    # looked up at call time so that a traced run calls the wrappers; the
    # package's own names `cayley` and `verify` shadow those submodules
    family8 = sys.modules["eulermagic.family8"]
    cayley = sys.modules["eulermagic.cayley"]
    matrices = sys.modules["eulermagic.matrices"]
    verify = sys.modules["eulermagic.verify"]
    tuples = family8.enumerate_w1(spec["a_max"])
    check = family8.w1_coefficient_checker()
    checker_true = sum(check(left) is True for left in tuples)

    family = []
    for point in points:
        try:
            report = family8.four_parameter_family(*point).report
        except ValueError as exc:
            family.append(["degenerate", str(exc)])
        else:
            family.append([report.is_euler_magic, str(report.gamma)])

    certificate = [[line.name, line.status] for line in cayley.nonexistence_certificate()]

    fixture_reports = []
    for name, path in fixtures:
        with open(path, encoding="utf-8") as handle:
            matrix = matrices.parse_matrix_text(handle.read())
        report = verify.verify(matrix)
        fixture_reports.append([name, report.is_euler_magic, str(report.gamma)])

    return {
        "tuples": len(tuples),
        "checker_true": checker_true,
        "family": family,
        "certificate": certificate,
        "fixtures": fixture_reports,
    }


def main():
    spec = json.loads(sys.argv[1])
    points = [tuple(Fraction(x) for x in point) for point in spec.get("points", ())]
    fixtures = [(name, os.path.join(ROOT, "fixtures", name)) for name in spec.get("fixtures", ())]
    tracer = None
    if spec["trace"]:
        import tracer as tracing  # perfbench/ is on the path as the script directory

        tracer = tracing.install()

    first = len(PROBES)
    probe()
    t_begin = perf_counter()
    if spec["kind"] == "search":
        outputs = run_searches(spec)
    else:
        outcome = run_certify(spec, points, fixtures)
    t_end = perf_counter()
    probe()
    _signal.setitimer(_signal.ITIMER_REAL, 0, 0)

    setup_s, setup_ref_s = span_times(t_start, t_imported, PROBES[:setup_probes_end])
    work_s, work_ref_s = span_times(t_begin, t_end, PROBES[first:])
    result = {
        "setup_s": setup_s,
        "work_s": work_s,
        "wall_s": setup_s + work_s,
        "setup_ref_s": setup_ref_s,
        "work_ref_s": work_ref_s,
        "wall_ref_s": setup_ref_s + work_ref_s,
        "probes": len(PROBES),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if spec["kind"] == "search":
        result["exit_codes"] = [code for code, _ in outputs]
        result["digests"] = [hashlib.sha256(out.encode("utf-8")).hexdigest() for _, out in outputs]
        result["digest"] = ",".join(result["digests"])
        result["summaries"] = [json.loads(out.splitlines()[-1]) for code, out in outputs
                               if code == 0]
    else:
        result["outcome"] = outcome
        result["digest"] = json_digest(outcome)
    if tracer is not None:
        result["trace"] = tracer.summary()
    check = spec.get("cayley_check")
    if check is not None:
        # after the timed span and after the trace summary was taken
        samples = cayley_samples(check["seed"], check["samples"])
        result["cayley_check"] = {"samples": samples, "digest": json_digest(samples)}
        result["digest"] += "," + result["cayley_check"]["digest"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
