"""In-process tracing of holoflow's layers, from outside the package.

The tracer replaces public functions with wrappers while it is installed
and puts the originals back when it is removed.  A name is replaced in every
holoflow module that holds it (``forelli.integral_curve`` as well as
``flow.integral_curve``), otherwise calls inside the package would be missed.

* Stage-level functions get spans: name, start, end, parent span and job id.
* Hot scalar helpers get call counters only (``series.eval_taylor`` also
  sums its time), since a span per call would cost more than the call.
* Oracles handed to ``extract`` are wrapped in a counting proxy that passes
  arrays through unchanged, so the vector-then-scalar fallback of
  ``_sample_line`` is counted and not altered.

Spans are kept in memory and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

#: stage-level functions that get a span, by module
SPANS = {
    "flow": ("level_grid", "classify_spectrum"),
    "extract": ("extract_coefficients", "sampled_sup", "verify_cauchy_bound"),
    "series": ("taylor_remainder_check",),
    "forelli": ("forelli_pipeline", "f_holomorphy_check", "antiholomorphic_vanishing",
                "reconstruct"),
    "asympt": ("pushforward", "tail_bound_check", "max_principle_bound"),
    "counterex": ("counterexample_suite", "choose_branch_exponent"),
    "cli": ("run_scenario",),
    "reports": ("write_decay_csv",),
}
#: hot helpers that only get a call counter
COUNTERS = {
    "flow": ("integral_curve",),
    "series": ("eval_taylor",),
    "wirtinger": ("dbar_fd", "dbar_fd_component"),
    "counterex": ("phi_resonant", "phi_spiral"),
}
#: counters that also sum the time spent in the call
TIMED = {"series.eval_taylor"}


def self_times(spans) -> dict:
    """Total self time per span name.

    ``spans`` holds records (job, id, parent, name, start, end).  Self time is
    a span's duration minus the part of it covered by its child spans.
    """
    children: dict = {}
    for rec in spans:
        children.setdefault(rec[2], []).append((rec[4], rec[5]))
    totals: Counter = Counter()
    for _job, sid, _parent, name, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start) - covered
    return dict(totals)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.job = None
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []
        self._origin = perf_counter()

    # -- recording --------------------------------------------------------

    def _error(self, module: str, exc: BaseException) -> None:
        """Count an exception once per module it passes through."""
        seen = getattr(exc, "_perfbench_modules", None)
        if seen is None:
            seen = set()
            exc._perfbench_modules = seen
        if module not in seen:
            seen.add(module)
            self.counts[f"{module}.errors"] += 1

    def _span(self, name: str, fn, hook=None, prepare=None):
        module = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._error(module, exc)
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((self.job, sid, parent, name,
                                   start - self._origin, end - self._origin))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn, points: bool = False):
        module = name.split(".")[0]
        key = f"{name}.calls"
        timed = name in TIMED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            if points:
                self.counts[f"{module}.expansion_points"] += int(np.size(args[1]))
            start = perf_counter() if timed else 0.0
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._error(module, exc)
                raise
            finally:
                if timed:
                    self.times[name] += perf_counter() - start

        return wrapper

    def _oracle_proxy(self, oracle):
        """Count calls and points of an extraction oracle; arrays pass through."""
        counts = self.counts

        def proxy(z):
            counts["extract.oracle_calls"] += 1
            if not isinstance(z, np.ndarray):
                counts["extract.oracle_points"] += 1
                return oracle(z)
            counts["extract.oracle_points"] += z.size
            counts["extract.vector_attempts"] += 1
            try:
                values = oracle(z)
            except Exception:
                counts["extract.oracle_retries"] += 1
                raise
            if np.shape(values) != z.shape:
                counts["extract.oracle_retries"] += 1
            return values

        return proxy

    # -- installation -----------------------------------------------------

    def _replace(self, module, attr: str, make) -> None:
        """Replace ``module.attr`` in every holoflow module that holds it."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "holoflow" or name.startswith("holoflow.")) \
                    and getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"holoflow.{name}")
                   for name in set(SPANS) | set(COUNTERS)}
        asympt, forelli = modules["asympt"], modules["forelli"]
        nodes = modules["extract"].quadrature_nodes

        def grid_hook(_args, _kwargs, grid):
            self.counts["flow.levels"] += len(grid)

        def extract_hook(args, kwargs, expansion):
            params = args[1] if len(args) > 1 else kwargs["params"]
            q = len(nodes(params))
            self.counts["extract.nodes"] += q
            self.counts["extract.level_nodes"] += q * len(expansion)

        def curve_hook(_args, _kwargs, report):
            self.counts["forelli.inconclusive"] += int(bool(report.inconclusive))

        def proxy_first(args):
            return (self._oracle_proxy(args[0]),) + tuple(args[1:])

        special = {
            "flow.level_grid": {"hook": grid_hook},
            "extract.extract_coefficients": {"hook": extract_hook, "prepare": proxy_first},
            "extract.sampled_sup": {"prepare": proxy_first},
            "forelli.f_holomorphy_check": {"hook": curve_hook},
        }
        for mod_name, attrs in SPANS.items():
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                self._replace(modules[mod_name], attr,
                              lambda fn, name=name: self._span(name, fn, **special.get(name, {})))
        for mod_name, attrs in COUNTERS.items():
            for attr in attrs:
                self._replace(modules[mod_name], attr,
                              lambda fn, name=f"{mod_name}.{attr}": self._counter(name, fn))

        for cls in (asympt.AsymptoticExpansion, asympt.HolomorphicExpansion):
            original = cls.partial
            self._patches.append((cls, "partial", original))
            cls.partial = self._counter(f"asympt.{cls.__name__}.partial", original, points=True)

        tracer = self

        class CountingJetOracle(forelli.JetOracle):
            def __post_init__(self):
                super().__post_init__()
                inner = self.oracle

                def oracle(z):
                    tracer.counts["forelli.oracle_calls"] += 1
                    return inner(z)

                object.__setattr__(self, "oracle", oracle)

        self._replace(forelli, "JetOracle", lambda _cls: CountingJetOracle)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- output -----------------------------------------------------------

    def dump(self, path, **meta) -> None:
        payload = dict(meta, counts=dict(self.counts), times=dict(self.times),
                       span_fields=["job", "id", "parent", "name", "start_s", "end_s"],
                       spans=self.spans)
        with open(path, "w") as fh:
            json.dump(payload, fh)
