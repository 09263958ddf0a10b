"""In-memory layer tracing for the benchmark's traced runs.

The program carries no instrumentation of its own.  `install` replaces each
public layer function by a timing wrapper at every module attribute that
names it, so a caller that imported the function by name (``search.py`` does
``from .cayley import cayley``) calls the wrapper too.  Wrapped calls nest on
one stack: a layer's self time is its duration minus the time its traced
callees took.

Calls to a hot leaf are aggregated as count plus time.  Calls to a coarse
layer (marked ``span``) are also kept as spans (id, parent span id, name,
start, end) and handed back when the run ends; nothing is written while the
workload runs.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (layer name, module, attribute, kept as a span)
LAYERS = (
    ("cli.main", "eulermagic.cli", "main", True),
    ("search.search8_seeded", "eulermagic.search", "search8_seeded", True),
    ("search.search5_cayley", "eulermagic.search", "search5_cayley", True),
    ("family8.improper_witnesses", "eulermagic.family8", "improper_witnesses", True),
    ("family8.diag_forms", "eulermagic.family8", "diag_forms", True),
    ("family8.enumerate_w1", "eulermagic.family8", "enumerate_w1", True),
    ("family8.four_parameter_family", "eulermagic.family8", "four_parameter_family", False),
    ("cayley.nonexistence_certificate", "eulermagic.cayley", "nonexistence_certificate", True),
    ("cayley.cayley", "eulermagic.cayley", "cayley", False),
    ("matrices.mat_inverse", "eulermagic.matrices", "mat_inverse", False),
    ("matrices.mat_mul", "eulermagic.matrices", "mat_mul", False),
    ("matrices.rescale_primitive", "eulermagic.matrices", "rescale_primitive", False),
    ("verify.verify", "eulermagic.verify", "verify", False),
)


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        # one frame per active wrapped call: [time covered by traced callees,
        # id of the innermost enclosing span]
        self._stack = [[0.0, None]]
        self.stats = {}  # layer -> [calls, total_s, self_s]
        self.counts = {}  # counter -> [count]
        self.spans = []  # [id, parent id, layer, start_s, end_s]

    def timed(self, name, func, span=False, observe=None):
        """func wrapped to add its calls, total and self time to `name`."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        origin = self.origin

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if span:
                    spans[span_id] = [span_id, parent[1], name, start - origin, end - origin]
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def counter(self, name):
        return self.counts.setdefault(name, [0])

    def counted(self, name, func):
        """func wrapped to count its calls under `name`, without timing them."""
        cell = self.counter(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return func(*args, **kwargs)

        return wrapper

    def summary(self):
        return {
            "layers": {
                name: {"calls": calls, "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in self.stats.items()
            },
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "spans": self.spans,
        }


def _replace(original, replacement):
    """Point every eulermagic module attribute that names `original` at `replacement`."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "eulermagic" or module_name.startswith("eulermagic."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap the program's layers in a fresh tracer; the package must be imported."""
    from eulermagic import family8
    from eulermagic.poly import MultiPoly

    tracer = Tracer()
    for name, module_name, attr, span in LAYERS:
        original = getattr(sys.modules[module_name], attr)
        observe = None
        if name == "verify.verify":
            magic = tracer.counter("verify.euler_magic")
            def observe(report, magic=magic):
                magic[0] += report.is_euler_magic
        _replace(original, tracer.timed(name, original, span=span, observe=observe))

    # w1_coefficient_checker returns a closure: time that call as a span and
    # every call of the closure it hands out as a hot leaf
    make_checker = family8.w1_coefficient_checker
    tracer.stats["family8.w1_checker"] = [0, 0.0, 0.0]

    def make_traced_checker():
        return tracer.timed("family8.w1_checker", make_checker())

    _replace(make_checker, tracer.timed(
        "family8.w1_coefficient_checker",
        functools.wraps(make_checker)(make_traced_checker),
        span=True,
    ))

    MultiPoly.substitute = tracer.timed("poly.substitute", MultiPoly.substitute)
    MultiPoly.__post_init__ = tracer.counted("poly.new", MultiPoly.__post_init__)
    return tracer
