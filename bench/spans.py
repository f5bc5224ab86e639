"""In-process tracing of ``segre`` from outside its source tree.

The tracer replaces public functions and methods of the engine with wrappers
that record one span per call (name, start, end, parent).  A function is
rebound under every ``segre`` module that imported it, so calls through
``from .rank import generic_rank`` are seen too.  Spans are kept in flat
arrays in memory and reduced to per-layer figures when the run ends; self
times are computed from the spans, never sampled.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute); "Class.method" wraps a method in place
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("expressions.load", "segre.expressions", "load_manifold_file"),
    ("expressions.parse", "segre.expressions", "parse_expression"),
    ("implicit.solve_graph", "segre.implicit", "solve_graph"),
    ("implicit.check_reality", "segre.implicit", "check_reality"),
    ("rank.rank_profile", "segre.rank", "rank_profile"),
    ("rank.generic_rank", "segre.rank", "generic_rank"),
    ("rank.minor", "segre.rank", "minor_determinant"),
    ("rank.exact_builder", "segre.rank", "_exact_entry_builder"),
    ("maps.segre_mapping", "segre.maps", "SegreMapping.__init__"),
    ("maps.v", "segre.maps", "SegreMapping.v"),
    ("maps.iterate", "segre.maps", "iterate"),
    ("maps.theta_phi", "segre.maps", "make_theta_phi"),
    ("maps.pushforward", "segre.maps", "pushforward_residuals"),
    ("maps.make_T", "segre.maps", "make_T"),
    ("series.mul", "segre.series", "TruncatedSeries.__mul__"),
    ("series.compose", "segre.series", "TruncatedSeries.compose"),
    ("series.compose_many", "segre.series", "compose_many"),
    ("linalg.sparse_kernel", "segre.linalg", "sparse_kernel"),
    ("linalg.rank_with_pivots", "segre.linalg", "rank_with_pivots"),
    ("orbit.annihilator", "segre.orbit", "orbit_annihilator"),
    ("orbit.ideal", "segre.orbit", "orbit_ideal_in_M"),
    ("orbit.mirror", "segre.orbit", "mirror_sigma"),
    ("orbit.verify_all", "segre.orbit", "verify_all"),
    ("fields.cr_basis", "segre.fields", "cr_basis"),
    ("fields.lie_hull", "segre.fields", "lie_hull_dimension"),
    ("fields.bracket", "segre.fields", "bracket"),
)

# direct children of verify_all, grouped into the phases of one verification
PHASES = {
    "rank.rank_profile": "rank_profile",
    "fields.lie_hull": "lie_hull",
    "maps.theta_phi": "theta_phi_build",
    "rank.generic_rank": "theta_phi_ranks",
    "maps.pushforward": "pushforward",
    "maps.make_T": "chains",
    "orbit.annihilator": "orbit_kernel",
    "orbit.ideal": "orbit_ideal",
    "orbit.mirror": "mirror",
}
PHASE_NAMES = tuple(PHASES.values()) + ("other",)


class Tracer:
    """Span recorder plus the counters that need a call's arguments or result."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.nested = bytearray()  # 1 when a span of the same name is open around it
        self._stack: List[int] = []
        self._open: Counter = Counter()
        self.counts: Dict[str, int] = dict.fromkeys(
            (
                "rank.minor.nonzero",
                "rank.unstable_certs",
                "rank.kappa_used_max",
                "rank.levels_built",
                "series.mul.terms_out",
                "linalg.sparse_kernel.cols",
            ),
            0,
        )
        self.q_coefficients: list = []
        self.q_terms: Dict[str, int] = {}
        self._saved: List[Tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        ids = self._ids
        if name not in ids:
            ids[name] = len(self.names)
            self.names.append(name)
        nid = ids[name]
        stack, opened, clock = self._stack, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.nested.append(1 if opened[nid] else 0)
            self.end.append(0.0)
            stack.append(index)
            opened[nid] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                opened[nid] -= 1
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken from arguments and results --------------------------

    def _after_mul(self, result, args, kwargs):
        self.counts["series.mul.terms_out"] += len(result.terms)

    def _after_minor(self, result, args, kwargs):
        if not result.is_zero():
            self.counts["rank.minor.nonzero"] += 1

    def _after_rank(self, result, args, kwargs):
        if not result.stable:
            self.counts["rank.unstable_certs"] += 1
        self.counts["rank.kappa_used_max"] = max(self.counts["rank.kappa_used_max"], result.kappa_used)

    def _after_kernel(self, result, args, kwargs):
        self.counts["linalg.sparse_kernel.cols"] += len(args[0])

    def _after_load(self, result, args, kwargs):
        components = result.Q.components
        self.q_terms[result.label] = sum(len(c.terms) for c in components)
        for component in components:
            self.q_coefficients.extend(component.terms.values())

    def _counted_builder(self, build: Callable) -> Callable:
        def counted(level):
            self.counts["rank.levels_built"] += 1
            return build(level)

        return counted

    def _wrap_generic_rank(self, fn: Callable) -> Callable:
        def with_builder(*args, **kwargs):
            if kwargs.get("builder") is not None:
                kwargs["builder"] = self._counted_builder(kwargs["builder"])
            return fn(*args, **kwargs)

        return self.span("rank.generic_rank", with_builder, self._after_rank)

    def _wrap_exact_builder(self, fn: Callable) -> Callable:
        return lambda matrix: self._counted_builder(fn(matrix))

    # -- installing and removing the wrappers -------------------------------

    def install(self) -> None:
        after = {
            "series.mul": self._after_mul,
            "rank.minor": self._after_minor,
            "linalg.sparse_kernel": self._after_kernel,
            "expressions.load": self._after_load,
        }
        modules = [m for name, m in sys.modules.items() if name == "segre" or name.startswith("segre.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._rebind(cls, method, original, self.span(name, original, after.get(name)))
                continue
            original = getattr(owner, attr)
            if name == "rank.generic_rank":
                wrapper = self._wrap_generic_rank(original)
            elif name == "rank.exact_builder":
                wrapper = self._wrap_exact_builder(original)
            else:
                wrapper = self.span(name, original, after.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, key: str, original, wrapper) -> None:
        self._saved.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reduction ----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans only) and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        table = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = table[self.names[self.name_of[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += duration - child[i]
            if not self.nested[i]:
                row["s"] += duration
        return table

    def phases(self) -> Dict[str, float]:
        """Seconds per phase of all verify_all spans, their total, and the part no phase covers."""
        verify = self._ids.get("orbit.verify_all")
        out = dict.fromkeys(PHASE_NAMES + ("verify", "unattributed"), 0.0)
        roots = {i for i in range(len(self.start)) if self.name_of[i] == verify}
        for i in roots:
            out["verify"] += self.end[i] - self.start[i]
        covered = 0.0
        for i in range(len(self.start)):
            if self.parent[i] in roots:
                phase = PHASES.get(self.names[self.name_of[i]], "other")
                duration = self.end[i] - self.start[i]
                out[phase] += duration
                covered += duration
        out["unattributed"] = out["verify"] - covered
        return out
