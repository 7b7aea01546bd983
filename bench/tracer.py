"""Span tracing of binact from outside the library.

Timing wrappers replace the traced functions in every binact module that
holds a reference to them. Modules bind the names they import, so patching
only the defining module would miss calls such as topology.is_distributive
or search.validate_action. Each span records its name, start, end and the
index of its parent span; spans stay in memory until the round ends.

search.hom_tuples and search.hom_yield are derived from the inputs, not
counted inside the program: the tuples tried are (m!)^k for the k
generators binact.search.greedy_generators picks, and the homomorphism
count they divide is fixed by Dey's formula. They stand in until the
library counts its own search nodes.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

from inputs import greedy_generator_count

# (defining module, function); the span name is "<module>.<function>"
TRACED = (
    ("groups", "make_group"),
    ("groups", "builtin_group"),
    ("groups", "group_from_json"),
    ("actions", "validate_action"),
    ("actions", "is_distributive"),
    ("actions", "make_ordinary_action"),
    ("orbits", "orbit_space"),
    ("orbits", "delta"),
    ("topology", "is_continuous"),
    ("topology", "quotient_topology"),
    ("topology", "run_topology_battery"),
    ("topology", "all_topologies"),
    ("search", "permutation_homomorphisms"),
    ("search", "canonicalize"),
    ("search", "enumerate_actions"),
    ("search", "mine_counterexamples"),
    ("cli", "main"),
)
GROUP_SPANS = {"groups.make_group", "groups.builtin_group", "groups.group_from_json"}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stack = [-1]
        self.compose_calls = 0
        self.hom_tuples = 0
        self.homs = 0
        self.actions_held = 0

    def install(self):
        """Patch every traced function and binops.compose_perm in all binact modules."""
        mods = [m for n, m in list(sys.modules.items()) if n == "binact" or n.startswith("binact.")]
        for modname, fname in TRACED:
            orig = getattr(sys.modules[f"binact.{modname}"], fname)
            self._replace(mods, orig, self._wrap(f"{modname}.{fname}", orig))
        compose = sys.modules["binact.binops"].compose_perm
        self._replace(mods, compose, self._counted(compose))

    def _counted(self, fn):
        def counted(p, q):
            self.compose_calls += 1
            return fn(p, q)

        return counted

    @staticmethod
    def _replace(mods, orig, wrapper):
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapper)

    def _wrap(self, name, fn):
        observe = {"search.permutation_homomorphisms": self._count_homs,
                   "search.enumerate_actions": self._count_held}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def span(self, name):
        return _Span(self, name)

    def _count_homs(self, args, result):
        """Tuples tried, (m!)^k for the k generators the library picks; the
        benchmark's own copy of the greedy choice stands in only if the
        library no longer has binact.search.greedy_generators."""
        g, degree = args
        greedy = getattr(sys.modules["binact.search"], "greedy_generators", None)
        k = len(greedy(g)) if greedy else greedy_generator_count(g.cayley, g.identity)
        self.hom_tuples += math.factorial(degree) ** k
        self.homs += len(result)

    def _count_held(self, args, result):
        self.actions_held = max(self.actions_held, len(result.actions))

    # --- analysis --------------------------------------------------------

    def overhead_estimate(self, calls: int = 20000) -> float:
        """Seconds the wrappers themselves added: the measured extra cost of
        one traced call and of one counted compose_perm, each the fastest of
        five timings of `calls` calls, times how often each happened."""
        def noop(p=None, q=None):
            return None

        probe = Tracer()
        traced, counted = probe._wrap("calibrate", noop), probe._counted(noop)

        def per_call(fn):
            best = math.inf
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn(None, None)
                best = min(best, time.perf_counter() - t0)
            return best / calls

        bare = per_call(noop)
        return (len(self.spans) * max(per_call(traced) - bare, 0.0)
                + self.compose_calls * max(per_call(counted) - bare, 0.0))

    def _child_times(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        child_time = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        return child_time

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far."""
        spans, child_time = self.spans, self._child_times()
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        groups_s = 0.0
        battery_distributive = 0
        for i, (name, t0, t1, parent) in enumerate(spans):
            pname = spans[parent][0] if parent >= 0 else None
            calls[name] += 1
            self_s[name] += t1 - t0 - child_time[i]
            if pname != name:
                incl[name] += t1 - t0
            if name in GROUP_SPANS and pname not in GROUP_SPANS:
                groups_s += t1 - t0
            if name == "actions.is_distributive" and self._under(i, "topology.run_topology_battery"):
                battery_distributive += 1
        batteries = calls["topology.run_topology_battery"]
        return {
            "search.canonicalize_s": incl["search.canonicalize"],
            "search.canonicalize_calls": calls["search.canonicalize"],
            "search.self_s": self_s["search.enumerate_actions"],
            "search.homs_s": incl["search.permutation_homomorphisms"],
            "search.hom_tuples": self.hom_tuples,
            "search.hom_yield": self.homs / self.hom_tuples if self.hom_tuples else 0.0,
            "search.witness_s": incl["search.mine_counterexamples"],
            "search.actions_held": self.actions_held,
            "actions.validate_calls": calls["actions.validate_action"],
            "actions.validate_s": incl["actions.validate_action"],
            "actions.distributive_calls": calls["actions.is_distributive"],
            "actions.distributive_s": incl["actions.is_distributive"],
            "actions.distributive_per_battery": battery_distributive / batteries if batteries else 0.0,
            "actions.make_ordinary_s": incl["actions.make_ordinary_action"],
            "orbits.orbit_space_calls": calls["orbits.orbit_space"],
            "orbits.orbit_space_s": incl["orbits.orbit_space"],
            "orbits.delta_calls": calls["orbits.delta"],
            "topology.continuity_calls": calls["topology.is_continuous"],
            "topology.continuity_s": incl["topology.is_continuous"],
            "topology.quotient_calls": calls["topology.quotient_topology"],
            "topology.quotient_s": incl["topology.quotient_topology"],
            "topology.battery_s": incl["topology.run_topology_battery"],
            "topology.all_topologies_s": incl["topology.all_topologies"],
            "groups.build_s": groups_s,
            "binops.compose_calls": self.compose_calls,
            "cli.self_s": self_s["cli.main"],
        }

    def split(self, root_prefix: str = "op:") -> dict:
        """For each top-level span named root_prefix..., its duration and, per
        traced function called under it, [inclusive, self] seconds. The self
        times and the root's own self time (untraced work) sum to the total."""
        spans, child_time = self.spans, self._child_times()
        out: dict = {}
        root_of = [-1] * len(spans)
        for i, (name, t0, t1, parent) in enumerate(spans):
            if name.startswith(root_prefix):
                root_of[i] = i
                out[name[len(root_prefix):]] = {
                    "total_s": t1 - t0, "untraced_s": t1 - t0 - child_time[i], "functions": {}}
                continue
            root_of[i] = root_of[parent] if parent >= 0 else -1
            if root_of[i] < 0:
                continue
            funcs = out[spans[root_of[i]][0][len(root_prefix):]]["functions"]
            incl_self = funcs.setdefault(name, [0.0, 0.0])
            if spans[parent][0] != name:
                incl_self[0] += t1 - t0
            incl_self[1] += t1 - t0 - child_time[i]
        return out

    def _under(self, i: int, name: str) -> bool:
        spans = self.spans
        i = spans[i][3]
        while i >= 0:
            if spans[i][0] == name:
                return True
            i = spans[i][3]
        return False

    def write(self, path) -> None:
        """Write the spans as tab-separated name, start, end, parent index."""
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\n")
            for name, t0, t1, parent in self.spans:
                f.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.spans[self.index] = (self.name, self.start, end, tr.stack[-1])
        return False

