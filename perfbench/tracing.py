"""Spans around the calls into empcalc's modules, recorded from outside the package.

The traced worker replaces each public function at the name its caller
looks up (``empcalc.simulate.derive_rng``, ``empcalc.cli.read_paired_csv``,
``BivariateLaw.sample`` ...) with a wrapper that records one span: id,
the id of the span that caused it, the op it belongs to, name, start,
end and work counts.  Spans stay in memory and are written out once at
the end.  A layer's self time is its spans' duration minus the time
covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter

# span name -> the counts reported for it, besides calls and self_s
LAYERS = {
    "streams.derive_rng": (),
    "sample.PairedSample": (),
    "simulate.driver": (),
    "simulate.ks_statistic": (),
    "laws.sample.gaussian": ("pairs",),
    "laws.sample.independent": ("pairs",),
    "laws.sample.mixture": ("pairs",),
    "laws.sample.discrete": ("pairs",),
    "correlation.compute_rho_n": (),
    "empirical.gn_eval": (),
    "empirical.gamma_matrix.monte_carlo": (),
    "empirical.gamma_matrix.exact": (),
    "laws.bivariate_moments": (),
    "laws.expectation": (),
    "correlation.sigma_squared": (),
    "correlation.correlation_expansion": (),
    "expansion.combinators": (),
    "empirical.asymptotic_variance": (),
    "io.read_paired_csv": ("bytes",),
    "correlation.estimate_moments": (),
    "correlation.test_zero_correlation": (),
    "io.write_paired_csv": ("bytes",),
    "normal.standard_normal_cdf": (),
    "cli.main": (),
}
MC_BATCH = "empirical.mc_batch"
OP = "op"

# ROADMAP baseline table: span -> (least pairs a span must draw to count,
# what the figure is, low and high seconds per call)
BASELINES = {
    "streams.derive_rng": (0, "derive_rng per call", 17e-6, 25e-6),
    "laws.sample.gaussian": (1_000_000, "gaussian sample of 1M pairs (2e6 Box-Muller normals)",
                             0.098, 0.098),
    "correlation.estimate_moments": (0, "estimate_moments on 1M rows", 0.371, 0.371),
    "io.read_paired_csv": (0, "read_paired_csv of 1M rows", 2.98, 2.98),
    "io.write_paired_csv": (0, "write_paired_csv of 1M rows", 2.81, 2.81),
}

# name -> unit of every per-layer value this module produces
METRIC_UNITS = {"empirical.mc_batches.drawn": "count",
                "empirical.mc_batches.pairs": "count",
                "empirical.mc_batches_per_law": "ratio",
                "trace.overhead_ratio": "ratio"}
for _layer, _counts in LAYERS.items():
    METRIC_UNITS[f"{_layer}.calls"] = "count"
    METRIC_UNITS[f"{_layer}.self_s"] = "s"
    for _c in _counts:
        METRIC_UNITS[f"{_layer}.{_c}"] = "count" if _c == "pairs" else "bytes"


def _file_bytes(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


class Tracer:
    """In-memory span recorder.  Spans are lists: [id, parent, op, name, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self.missing: list[str] = []

    def wrap(self, fn, name, attrs=None, rename=None):
        """Wrap ``fn``; ``name`` is a string or a function of the call's args.

        ``attrs(args, result)`` gives the span's work counts and
        ``rename(result)`` its final name, both only when the call returns.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.op,
                   name(args) if callable(name) else name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[6] = attrs(args, result)
            if rename is not None:
                rec[3] = rename(result)
            return result

        return traced

    def patch(self, owner, attr: str, name, **kw) -> None:
        """Replace ``owner.attr`` by its traced wrapper; absent names are listed, not fatal."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(fn, name, **kw))

    def run_op(self, index: int, fn, *args):
        """Run one benchmark op as a root span; its descendants share its op id."""
        self.op = index
        try:
            return self.wrap(fn, OP)(*args)
        finally:
            self.op = None

    def install(self, program) -> None:
        """Wrap every layer boundary of the loaded empcalc modules."""
        p = program
        for mod in (p.simulate, p.empirical, p.laws):
            self.patch(mod, "derive_rng", "streams.derive_rng")
        for mod in (p.laws, p.io):
            self.patch(mod, "PairedSample", "sample.PairedSample")
        for mod, attr in ((p.cli, "run_clt_experiment"), (p.cli, "run_lemma1_experiment"),
                          (p.simulate, "run_lemma1_experiment")):
            self.patch(mod, attr, "simulate.driver")
        self.patch(p.simulate, "ks_statistic", "simulate.ks_statistic")
        self.patch(p.laws.BivariateLaw, "sample", lambda a: f"laws.sample.{a[0].kind}",
                   attrs=lambda a, r: {"pairs": int(a[1]), "law": id(a[0])})
        for mod in (p.simulate, p.cli, p.correlation):
            self.patch(mod, "compute_rho_n", "correlation.compute_rho_n")
        self.patch(p.simulate, "gn_eval", "empirical.gn_eval")
        for mod in (p.simulate, p.empirical):
            self.patch(mod, "gamma_matrix", "empirical.gamma_matrix",
                       rename=lambda r: f"empirical.gamma_matrix.{r.method}")
        self.patch(p.empirical.SamplingMoments, "batch", MC_BATCH)
        self.patch(p.laws.BivariateLaw, "bivariate_moments", "laws.bivariate_moments")
        self.patch(p.empirical.PolynomialMomentOracle, "expectation", "laws.expectation")
        self.patch(p.laws.DiscreteLaw, "expectation", "laws.expectation")
        for mod in (p.simulate, p.cli, p.correlation):
            self.patch(mod, "sigma_squared", "correlation.sigma_squared")
        for mod in (p.cli, p.correlation):
            self.patch(mod, "correlation_expansion", "correlation.correlation_expansion")
        for attr in ("from_mean", "add", "mul", "div", "smooth_map"):
            self.patch(p.correlation, attr, "expansion.combinators")
        for mod in (p.cli, p.empirical):
            self.patch(mod, "asymptotic_variance", "empirical.asymptotic_variance")
        self.patch(p.cli, "read_paired_csv", "io.read_paired_csv",
                   attrs=lambda a, r: {"bytes": _file_bytes(a[0])})
        for mod in (p.cli, p.correlation):
            self.patch(mod, "estimate_moments", "correlation.estimate_moments")
        self.patch(p.cli, "test_zero_correlation", "correlation.test_zero_correlation")
        self.patch(p.io, "write_paired_csv", "io.write_paired_csv",
                   attrs=lambda a, r: {"bytes": _file_bytes(a[1])})
        for mod in (p.simulate, p.correlation):
            self.patch(mod, "standard_normal_cdf", "normal.standard_normal_cdf")
        self.patch(p.cli, "main", "cli.main")

    def _covered(self) -> list[float]:
        """Per span, the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] is not None:
                covered[s[1]] += s[5] - s[4]
        return covered

    def layer_metrics(self) -> dict:
        """Calls, self time and work counts per layer, plus the Monte Carlo batch counters."""
        covered = self._covered()
        out = dict.fromkeys(METRIC_UNITS, 0)
        for name in LAYERS:
            out[f"{name}.self_s"] = 0.0
        batch_laws = set()
        for s in self.spans:
            name = s[3]
            if name in LAYERS:
                out[f"{name}.calls"] += 1
                out[f"{name}.self_s"] += (s[5] - s[4]) - covered[s[0]]
                for key in LAYERS[name]:
                    out[f"{name}.{key}"] += (s[6] or {}).get(key, 0)
            parent = self.spans[s[1]][3] if s[1] is not None else None
            if name.startswith("laws.sample.") and parent == MC_BATCH:
                out["empirical.mc_batches.drawn"] += 1
                out["empirical.mc_batches.pairs"] += s[6]["pairs"]
                batch_laws.add((s[2], s[6]["law"]))
        if batch_laws:
            out["empirical.mc_batches_per_law"] = out["empirical.mc_batches.drawn"] / len(batch_laws)
        return out

    def baseline_figures(self) -> dict:
        """Mean self time per call of each BASELINES span, where one was recorded."""
        covered = self._covered()
        out = {}
        for name, (min_pairs, *_) in BASELINES.items():
            times = [(s[5] - s[4]) - covered[s[0]] for s in self.spans
                     if s[3] == name and (s[6] or {}).get("pairs", 0) >= min_pairs]
            if times:
                out[name] = sum(times) / len(times)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {"id": s[0], "parent": s[1], "op": s[2], "name": s[3],
                       "start": s[4], "end": s[5]}
                if s[6]:
                    rec.update({k: v for k, v in s[6].items() if k != "law"})
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
