"""Span tracing of the hurwitz layers from outside the package.

`Tracer.install()` replaces each public function in TARGETS with a wrapper
that records a span (name, start, end, parent, request id).  It patches
every `hurwitz.*` module attribute and class attribute bound to the same
object, because modules import each other's functions by name (`counts`
binds `character` and `complete_coeffs`; `TruncatedSeries.__radd__` is
`__add__`).  Spans are kept in memory in flat arrays and written out at the
end; self time (span duration minus the time its child spans cover) and
the call counts are accumulated while the spans close.

The module = the layer; a function's metrics are named
`<module>.<qualified name>.calls` and `.self_s`.  Per layer, `self_s` sums
the self times of its functions and `inclusive_s` the time spent under its
outermost spans, the layers they call included (fock's share of a workload
includes the series arithmetic it runs).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

MODULES = ("partitions", "symfunc", "counts", "fock", "series", "polynomials",
           "polycheck", "spectral", "cli")

TARGETS = (
    ("partitions", "character"),
    ("partitions", "connected_from_disconnected"),
    ("partitions", "CharacterCache.save"),
    ("symfunc", "complete_coeffs"),
    ("symfunc", "elementary_coeffs"),
    ("counts", "disconnected_series_character"),
    ("counts", "connected_series_character"),
    ("counts", "oracle_group_algebra"),
    ("counts", "fock_shifted_coefficient"),
    ("counts", "hurwitz_number"),
    ("fock", "disconnected_block_series"),
    ("fock", "vacuum_expectation"),
    ("fock", "apply_E"),
    ("series", "mul"),
    ("series", "TruncatedSeries.__mul__"),
    ("series", "TruncatedSeries.__add__"),
    ("series", "elementary_series"),
    ("series", "exp_linear"),
    ("polynomials", "interpolate_on_grid"),
    ("polycheck", "verify_quasipolynomiality"),
    ("spectral", "xi_series"),
    ("spectral", "curve_inverse_series"),
    ("spectral", "check_F01"),
    ("spectral", "check_bergman02"),
    ("cli", "run"),
)

# counters recorded at the span boundaries, summed over calls unless noted
COUNTERS = (
    ("partitions.ie_terms", "count", "lower"),
    ("partitions.char_table_entries", "count", "lower"),   # max over calls
    ("partitions.cache_bytes_read", "bytes", "lower"),
    ("series.mul.terms_out", "count", "lower"),
    ("fock.disconnected_block_series.hit_ratio", "ratio", "higher"),
    ("fock.states_out", "count", "lower"),
    ("fock.peak_states", "count", "lower"),                 # max over calls
    ("polynomials.grid_points", "count", "lower"),
    ("polycheck.holdouts", "count", "lower"),
    ("cli.import_s", "s", "lower"),
)
MAX_COUNTERS = ("partitions.char_table_entries", "fock.peak_states")

# time covered by no traced span: the request loop in-process, interpreter
# start-up, imports and exit for CLI calls
UNTRACED = "layer.untraced.self_s"


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, attr in TARGETS:
        out.append((f"{module}.{attr}.calls", "count", "lower"))
        out.append((f"{module}.{attr}.self_s", "s", "lower"))
    out.extend(COUNTERS)
    out.extend((f"layer.{m}.self_s", "s", "lower") for m in MODULES)
    out.extend((f"layer.{m}.inclusive_s", "s", "lower") for m in MODULES)
    out.append((UNTRACED, "s", "lower"))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.request = -1
        self._stack: list[list] = []      # [span index, child time]
        self._calls: list[int] = []
        self._self: list[float] = []
        self._depth = [0] * len(MODULES)
        self._inclusive = [0.0] * len(MODULES)
        self.top_level_s = 0.0
        self.counters = {name: 0 for name, _, _ in COUNTERS}
        self._block_cache = None

    # -- span recording ----------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        self._calls.append(0)
        self._self.append(0.0)
        layer = MODULES.index(name.split(".")[0])
        depth, inclusive = self._depth, self._inclusive
        clock = time.perf_counter
        stack = self._stack
        spans = (self.span_name, self.span_start, self.span_end,
                 self.span_parent, self.span_request)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans[0])
            spans[0].append(name_id)
            spans[3].append(stack[-1][0] if stack else -1)
            spans[4].append(self.request)
            spans[2].append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            spans[1].append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                spans[2][idx] = end
                stack.pop()
                depth[layer] -= 1
                dur = end - start
                if not depth[layer]:
                    inclusive[layer] += dur
                self._calls[name_id] += 1
                self._self[name_id] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_level_s += dur
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Import every hurwitz module and patch the TARGETS in place."""
        for module in MODULES:
            importlib.import_module(f"hurwitz.{module}")
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "hurwitz" or n.startswith("hurwitz.")]
        hooks = {
            "partitions.connected_from_disconnected": self._after_ie,
            "series.mul": self._after_mul,
            "fock.apply_E": self._after_apply_e,
            "polynomials.interpolate_on_grid": self._after_interpolate,
            "polycheck.verify_quasipolynomiality": self._after_verify,
        }
        for module, attr in TARGETS:
            name = f"{module}.{attr}"
            owner = sys.modules[f"hurwitz.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            if name == "fock.disconnected_block_series":
                self._block_cache = original
            traced = self._wrap(name, original, hooks.get(name))
            for holder in loaded + [owner]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)

    # -- counters ------------------------------------------------------------

    def _after_ie(self, args, result):
        blocks = args[0]
        self.counters["partitions.ie_terms"] += _bell(len(frozenset().union(*blocks)))

    def _after_mul(self, args, result):
        self.counters["series.mul.terms_out"] += len(result.terms)

    def _after_apply_e(self, args, result):
        self.counters["fock.states_out"] += len(result)
        self.counters["fock.peak_states"] = max(self.counters["fock.peak_states"],
                                                len(result))

    def _after_interpolate(self, args, result):
        self.counters["polynomials.grid_points"] += len(args[0])

    def _after_verify(self, args, result):
        self.counters["polycheck.holdouts"] += len(result.holdouts)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Raw per-process totals; `combine` turns a list of them into metrics."""
        from hurwitz.partitions import active_cache

        info = self._block_cache.cache_info()
        counters = dict(self.counters)
        counters["partitions.char_table_entries"] = len(active_cache())
        return {"calls": dict(zip(self.names, self._calls)),
                "self_s": dict(zip(self.names, self._self)),
                "inclusive_s": dict(zip(MODULES, self._inclusive)),
                "counters": counters,
                "block_hits": info.hits, "block_misses": info.misses,
                "top_level_s": self.top_level_s}

    def write_spans(self, path: str) -> None:
        """Append the spans to a tab-separated file, with a header if it is new."""
        with open(path, "a", encoding="ascii") as fh:
            if fh.tell() == 0:
                fh.write("request\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                req = self.span_request[i]
                parent = self.span_parent[i]
                fh.write(f"{req}\t{req}.{i}\t{'' if parent < 0 else f'{req}.{parent}'}\t"
                         f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\n")


def combine(summaries: list[dict], wall_s: float) -> dict:
    """Per-layer metrics of one round from its processes' summaries.

    `wall_s` is the time the spans could cover: the request loop in-process,
    or the summed process wall times of CLI calls.
    """
    metrics = {}
    for module, attr in TARGETS:
        name = f"{module}.{attr}"
        metrics[f"{name}.calls"] = sum(s["calls"][name] for s in summaries)
        metrics[f"{name}.self_s"] = sum(s["self_s"][name] for s in summaries)
    for name, _, _ in COUNTERS:
        values = [s["counters"].get(name, 0) for s in summaries]
        metrics[name] = max(values, default=0) if name in MAX_COUNTERS else sum(values)
    hits = sum(s["block_hits"] for s in summaries)
    lookups = hits + sum(s["block_misses"] for s in summaries)
    metrics["fock.disconnected_block_series.hit_ratio"] = hits / lookups if lookups else 0.0
    for m in MODULES:
        metrics[f"layer.{m}.self_s"] = sum(metrics[f"{mod}.{attr}.self_s"]
                                           for mod, attr in TARGETS if mod == m)
        metrics[f"layer.{m}.inclusive_s"] = sum(s["inclusive_s"][m] for s in summaries)
    metrics[UNTRACED] = wall_s - sum(s["top_level_s"] for s in summaries)
    return metrics
