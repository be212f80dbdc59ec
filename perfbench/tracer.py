"""Per-layer tracing for the fibfield benchmark, done from outside the library.

The tracer replaces public functions of the fibfield modules with wrappers
that time each call and count the work it did.  It patches every binding of
a function, not only the defining module's: `theorem` calls
`sweep_star_orbits` through its own `from .fibseq import ...` name, so
wrapping `fibfield.fibseq` alone would miss those calls.  A function that no
longer exists is recorded as absent instead of failing the run, because
planned refactors fold or remove some of these functions.

Spans nest: each call is timed inclusively, and the time a span's direct
children take is subtracted to give its self time.  A call to a function
whose span name is already on top of the stack (verify_lucas delegating to
verify_main) is folded into the open span.
"""

from __future__ import annotations

import sys
from time import perf_counter

VERIFY = "theorem.verify"


def _count_sweep(tracer, args, result, parent):
    n = args[0]
    tracer.counts["fibseq.pairs_walked"] += n * n - 1
    tracer.counts["fibseq.star_orbits"] += len(result)
    tracer.counts["fibseq.star_pairs"] += sum(period for _, period, _ in result)


def _count_power_subgroup(tracer, args, result, parent):
    tracer.counts["modarith.power_subgroup.elements"] += len(result)
    if parent == VERIFY:
        tracer.counts["theorem.subgroups_built"] += 1


def _count_n_pm_power_subgroup(tracer, args, result, parent):
    tracer.counts["quadext.n_pm_power_subgroup.elements"] += len(result)
    if parent == VERIFY:
        tracer.counts["theorem.subgroups_built"] += 1


def _count_divisors(tracer, args, result, parent):
    if parent == VERIFY:
        tracer.counts["theorem.divisors_checked"] += len(result)


# (module, function, span name, result hook).  The span name is the metric
# prefix; several functions may share one span.
TARGETS = (
    ("fibseq", "sweep_star_orbits", "fibseq.sweep_star_orbits", _count_sweep),
    ("fibseq", "mat_order", "fibseq.mat_order", None),
    ("fibseq", "minimal_period", "fibseq.minimal_period", None),
    ("modarith", "is_prime", "modarith.is_prime", None),
    ("modarith", "factorize", "modarith.factorize", None),
    ("modarith", "divisors", "modarith.divisors", _count_divisors),
    ("modarith", "multiplicative_order", "modarith.multiplicative_order", None),
    ("modarith", "power_subgroup", "modarith.power_subgroup", _count_power_subgroup),
    ("quadext", "ext_order", "quadext.ext_order", None),
    ("quadext", "field_generator", "quadext.field_generator", None),
    ("quadext", "n_pm_power_subgroup", "quadext.n_pm_power_subgroup",
     _count_n_pm_power_subgroup),
    ("theorem", "eigen_data", "theorem.eigen_data", None),
    ("theorem", "verify_main", VERIFY, None),
    ("theorem", "verify_lucas", VERIFY, None),
    ("theorem", "verify_complementary", VERIFY, None),
    ("cli", "dumps_record", "cli.dumps_record", None),
    ("cli", "_verify_worker", "cli.verify_worker", None),
)


class Tracer:
    """Span statistics and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, seconds, self seconds]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [name, seconds taken by children]

    def wrap(self, name, fn, hook):
        stack = self._stack
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
            if hook is not None:
                hook(self, args, result, stack[-1][0] if stack else None)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded fibfield module that binds it."""
        import fibfield.cli  # noqa: F401  (loads every module the CLI uses)

        for key in ("fibseq.pairs_walked", "fibseq.star_orbits", "fibseq.star_pairs",
                    "modarith.power_subgroup.elements",
                    "quadext.n_pm_power_subgroup.elements",
                    "theorem.divisors_checked", "theorem.subgroups_built"):
            self.counts[key] = 0
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "fibfield" or n.startswith("fibfield."))]
        for module_name, func_name, span, hook in TARGETS:
            home = sys.modules.get(f"fibfield.{module_name}")
            fn = getattr(home, func_name, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{func_name}")
                continue
            wrapper = self.wrap(span, fn, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def summary(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}
