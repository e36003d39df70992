"""Span tracing for the traced benchmark run, from outside the package.

``run.py`` imports this module only when ``--trace 1``; the untraced run
measures the end-to-end metrics and never loads it.  ``install`` replaces
cliffcent's public entry points, in every cliffcent module that refers to them,
with wrappers that record spans; ``restore`` puts the originals back.

A span has a name, a start, an end, a parent and the op it ran under.  Every
span of the first pass is kept in memory and written out when the run ends.
A span's self time is its duration minus the time covered by its child
spans, so the self times of all spans plus the time outside every op add up
to the traced wall time.

The hot leaf functions (``blade_product``, ``Multivector.__mul__`` and
``Subspace.__post_init__``) get no span: a pass makes up to 275,000 calls to
them, and a span's bookkeeping would be charged to the spans around it.
``install`` only counts their calls; ``install_leaf_timers`` times them, and
nothing else, in a pass of their own.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from typing import Dict, List

from cliffcent import _linalg, blades, centralizers, cli, multivector, subspaces

CLOSED_FORMS = ("closed_form_grade", "closed_form_small_grade",
                "closed_form_nondegenerate", "closed_form_qt",
                "closed_form_qt_pair", "center_closed_form")

# Per span name: calls, self time, total time, and the calls and total time
# of spans not nested inside a span of the same name.
_FIELDS = ("calls", "self", "total", "outer_calls", "outer_total")


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.stats: Dict[str, Dict[str, float]] = {}
        self.counts: Dict[str, float] = {}
        self.spans: List[list] = []
        self.record = True       # keep individual spans (first pass only)
        self.op_id = -1
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {}
        self._next_id = 0
        self._patches: List[tuple] = []
        # signatures whose sign table this pass has built; every pass starts
        # with cold caches
        self.tables_built: set = set()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- spans --------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Wrap ``fn`` so every call records a span called ``name``.

        ``after(args, result, duration)`` runs once the span has closed.
        """
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        stat = self.stats.setdefault(name, dict.fromkeys(_FIELDS, 0.0))

        def traced(*args, **kwargs):
            outer = not depth.get(name)
            depth[name] = depth.get(name, 0) + 1
            self._next_id += 1
            span_id, parent_id = self._next_id, stack[-1][2] if stack else None
            frame = [0.0, 0.0, span_id]  # start, time covered by children, id
            stack.append(frame)
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat["calls"] += 1
                stat["total"] += duration
                stat["self"] += duration - frame[1]
                if outer:
                    stat["outer_calls"] += 1
                    stat["outer_total"] += duration
                if self.record:
                    self.spans.append((span_id, name, start, end, parent_id,
                                       self.op_id))
            if after is not None:
                after(args, result, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, fn, replacement) -> None:
        """Replace ``fn`` under every name any cliffcent module binds it to."""
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("cliffcent"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the layer boundaries ----------------------------------------------

    def install(self) -> None:
        wrap, everywhere = self.wrap, self.patch_everywhere
        counts = self.counts

        def counter(name, fn):
            counts[name] = 0

            def counted(*args):
                counts[name] += 1
                return fn(*args)

            return counted

        everywhere(blades.blade_product,
                   counter("blades.blade_product.calls", blades.blade_product))
        self.patch(multivector.Multivector, "__mul__",
                   counter("multivector.mul.calls", multivector.Multivector.__mul__))
        everywhere(centralizers.nullspace_centralizer_oracle,
                   wrap("centralizers.nullspace",
                        centralizers.nullspace_centralizer_oracle))

        def linalg_nullspace(rows, ncols):
            rows = list(rows)
            basis = original_nullspace(rows, ncols)
            self.add("linalg.rows_in", len(rows))
            self.add("linalg.pivots", ncols - len(basis))
            return basis

        original_nullspace = _linalg.nullspace
        everywhere(_linalg.nullspace, wrap("linalg.nullspace", linalg_nullspace))

        original_brute = centralizers.brute_force_centralizer
        everywhere(original_brute, self._wrap_brute(original_brute))

        for fname in CLOSED_FORMS:
            fn = getattr(centralizers, fname)
            everywhere(fn, wrap("centralizers.closed_form", fn))

        everywhere(subspaces.evaluate_spec,
                   wrap("subspaces.evaluate_spec", subspaces.evaluate_spec))

        init = subspaces.Subspace.__post_init__
        counts["subspaces.subspace.blades_validated"] = 0

        def count_subspace(subspace):
            counts["subspaces.subspace.blades_validated"] += len(subspace.blades)
            init(subspace)

        self.patch(subspaces.Subspace, "__post_init__",
                   counter("subspaces.subspace.constructed", count_subspace))

        def count_mismatch(args, report, duration):
            self.add("centralizers.verify_case.mismatches", not report.match)

        everywhere(centralizers.verify_case,
                   wrap("centralizers.verify_case", centralizers.verify_case,
                        after=count_mismatch))

        def count_exit(args, code, duration):
            self.add("cli.nonzero_exits", code != 0)

        everywhere(cli.main, wrap("cli.main", cli.main, after=count_exit))

        for cls in (centralizers.VerifyReport, centralizers.Table1Row):
            self.patch(cls, "to_json_dict",
                       wrap("cli.serialize", cls.to_json_dict))
        json_module = type(json)("json")
        json_module.__dict__.update(vars(json))
        json_module.dumps = wrap("cli.serialize", json.dumps)
        self.patch(cli, "json", json_module)

    def install_leaf_timers(self) -> None:
        """Time the hot leaf functions and nothing else.  A leaf's self time
        leaves out the leaves it calls: ``__mul__`` calls ``blade_product``."""
        counts, clock = self.counts, time.perf_counter
        covered = [0.0]  # time of the timed calls finished so far

        def timer(name, fn):
            counts[name] = 0.0

            def timed(*args):
                mark, start = covered[0], clock()
                try:
                    return fn(*args)
                finally:
                    duration = clock() - start
                    counts[name] += duration - (covered[0] - mark)
                    covered[0] = mark + duration

            return timed

        self.patch_everywhere(blades.blade_product,
                              timer("blades.blade_product.self_s", blades.blade_product))
        self.patch(multivector.Multivector, "__mul__",
                   timer("multivector.mul.self_s", multivector.Multivector.__mul__))
        self.patch(subspaces.Subspace, "__post_init__",
                   timer("subspaces.subspace.init_s", subspaces.Subspace.__post_init__))

    def _wrap_brute(self, brute):
        """Brute force split into cold calls (the first per signature in a
        pass, which builds the sign table) and warm calls, with the growth of
        peak RSS during the calls."""

        def brute_force_centralizer(sig, s, kind):
            rss_before = _maxrss_mib()
            result = brute(sig, s, kind)
            self.add("centralizers.brute.rss_growth_mib", _maxrss_mib() - rss_before)
            return result

        def book(args, result, duration):
            sig, s = args[0], args[1]
            key = (sig.p, sig.q, sig.r)
            # An empty S returns before the table is touched.
            cold = bool(s.blades) and key not in self.tables_built
            self.add("centralizers.brute.cold_s" if cold
                     else "centralizers.brute.warm_s", duration)
            if s.blades:
                self.tables_built.add(key)
                size, used = 1 << sig.n, len(s.blades)
                # the call reads column v and row v of the table for v in S
                self.add("sign_table.entries_read", 2 * used * size - used * used)
                self.add("sign_table.entries_there", size * size)

        return self.wrap("centralizers.brute", brute_force_centralizer, after=book)

    def end_pass(self) -> None:
        """Book the sign tables this pass built: 4^n one-byte entries each."""
        for p, q, r in self.tables_built:
            self.add("centralizers.sign_table.builds", 1)
            self.add("centralizers.sign_table.bytes_computed", 4 ** (p + q + r))
        self.tables_built = set()

    # -- results ----------------------------------------------------------

    def per_layer(self, passes: int, wall_s: float) -> Dict[str, float]:
        """Every per-layer metric: per pass, except the two ratios and the
        peak-RSS growth, which cover the whole run.  The times of the hot
        leaves come from the one pass of ``install_leaf_timers``."""
        st, ct = self.stats, self.counts

        def per_pass(value):
            return value / passes

        there = ct.get("sign_table.entries_there", 0)
        rows_in = ct.get("linalg.rows_in", 0)
        op_s = st["bench.op"]["total"]
        return {
            "blades.blade_product.calls": per_pass(ct["blades.blade_product.calls"]),
            "blades.blade_product.self_s": ct["blades.blade_product.self_s"],
            "multivector.mul.calls": per_pass(ct["multivector.mul.calls"]),
            "multivector.mul.self_s": ct["multivector.mul.self_s"],
            "centralizers.nullspace.calls": per_pass(st["centralizers.nullspace"]["calls"]),
            # includes the oracle's products: the hot leaves are not spans
            "centralizers.nullspace.self_s": per_pass(st["centralizers.nullspace"]["self"]),
            "linalg.nullspace.self_s": per_pass(st["linalg.nullspace"]["self"]),
            "linalg.rows_in": per_pass(rows_in),
            "linalg.rank_per_row": ct.get("linalg.pivots", 0) / rows_in if rows_in else 0.0,
            "centralizers.brute.calls": per_pass(st["centralizers.brute"]["calls"]),
            "centralizers.brute.cold_s": per_pass(ct.get("centralizers.brute.cold_s", 0)),
            "centralizers.brute.warm_s": per_pass(ct.get("centralizers.brute.warm_s", 0)),
            "centralizers.brute.rss_growth_mib": ct.get("centralizers.brute.rss_growth_mib", 0),
            "centralizers.sign_table.builds": per_pass(ct.get("centralizers.sign_table.builds", 0)),
            "centralizers.sign_table.bytes_computed":
                per_pass(ct.get("centralizers.sign_table.bytes_computed", 0)),
            "centralizers.sign_table.used_ratio":
                ct.get("sign_table.entries_read", 0) / there if there else 0.0,
            "centralizers.closed_form.calls": per_pass(st["centralizers.closed_form"]["outer_calls"]),
            "centralizers.closed_form.s": per_pass(st["centralizers.closed_form"]["outer_total"]),
            "subspaces.evaluate_spec.s": per_pass(st["subspaces.evaluate_spec"]["outer_total"]),
            "subspaces.subspace.constructed":
                per_pass(ct["subspaces.subspace.constructed"]),
            "subspaces.subspace.blades_validated":
                per_pass(ct["subspaces.subspace.blades_validated"]),
            "subspaces.subspace.init_s": ct["subspaces.subspace.init_s"],
            "centralizers.verify_case.calls": per_pass(st["centralizers.verify_case"]["calls"]),
            "centralizers.verify_case.self_s": per_pass(st["centralizers.verify_case"]["self"]),
            "centralizers.verify_case.mismatches":
                per_pass(ct.get("centralizers.verify_case.mismatches", 0)),
            "cli.main.calls": per_pass(st["cli.main"]["calls"]),
            "cli.main.self_s": per_pass(st["cli.main"]["self"]),
            "cli.serialize.s": per_pass(st["cli.serialize"]["outer_total"]),
            "cli.output_bytes": per_pass(ct.get("cli.output_bytes", 0)),
            "cli.nonzero_exits": per_pass(ct.get("cli.nonzero_exits", 0)),
            "trace.wall_s": per_pass(wall_s),
            "trace.op_s": per_pass(op_s),
            "trace.unattributed_s": per_pass(wall_s - op_s),
        }

    def self_times(self) -> Dict[str, float]:
        return {name: stat["self"] for name, stat in sorted(self.stats.items())}

    def dump(self, path, extra: dict) -> None:
        """Write the recorded spans and per-name totals as one JSON file."""
        with open(path, "w") as out:
            json.dump({**extra, "stats": self.stats, "counts": self.counts,
                       "span_fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": self.spans}, out)
