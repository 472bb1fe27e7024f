"""The benchmark's four workloads: inputs from the seed, the ops, their checks.

Op ``index`` of a run with seed ``seed`` uses the program seed
``seed * 1_000_000 + index``.  Ops come in units: one op, or one cycle of
a workload that mixes op kinds.  A worker only stops between units, so
every run measures whole cycles and the op mix is the same at any speed.

Every op is checked against :mod:`reference`, which shares no code with
empcalc.  A check returns a list of problems; an empty list means the op
agreed with the reference.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
import types
from itertools import combinations_with_replacement

import numpy as np

import reference as ref

MARGINALS = ("standard_normal", "uniform_std", "exponential_std", "rademacher")
PAIRINGS = tuple(combinations_with_replacement(MARGINALS, 2))

# mixture used by mc_large_n: both components are centred with unit variances
MIXTURE_SPEC = {"kind": "mixture",
                "components": [{"kind": "gaussian", "rho": 0.8},
                               {"kind": "independent", "marginal_x": "uniform_std",
                                "marginal_y": "exponential_std"}],
                "weights": [0.6, 0.4]}

# size of the Monte Carlo batch empcalc draws for a non-polynomial expectation
MC_FALLBACK_BUDGET = 1_000_000
# Z_ALPHA standard errors of a fallback covariance entry under gaussian(0.5):
# Var((XY)^2) = 26.25 bounds every entry of the (pi1, pi2, p, cos(pi1)) family
MC_PREDICTION_ATOL = ref.Z_ALPHA * math.sqrt(26.25 / MC_FALLBACK_BUDGET)


def op_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index


def load_program() -> types.SimpleNamespace:
    """Import the package under test; ops look functions up on these modules."""
    import empcalc.cli
    import empcalc.correlation
    import empcalc.empirical
    import empcalc.functions
    import empcalc.io
    import empcalc.laws
    import empcalc.sample
    import empcalc.simulate
    return types.SimpleNamespace(
        cli=empcalc.cli, correlation=empcalc.correlation, empirical=empcalc.empirical,
        functions=empcalc.functions, io=empcalc.io, laws=empcalc.laws,
        sample=empcalc.sample, simulate=empcalc.simulate)


class Op:
    """One timed call into the program, plus how to check what it returned."""

    __slots__ = ("index", "label", "call", "check", "items")

    def __init__(self, index, label, call, check, items):
        self.index = index
        self.label = label
        self.call = call      # call(program) -> output
        self.check = check    # check(output) -> list of problems
        self.items = items    # units of work: replicates, laws or rows


def run_cli(program, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = program.cli.main(argv)
    return code, buf.getvalue()


def _report(out) -> tuple[list[str], dict]:
    code, text = out
    problems = [] if code == 0 else [f"exit code {code}"]
    if not text:
        return problems + ["no report on stdout"], {}
    rep = json.loads(text)
    bad = [c["name"] for c in rep["checks"] if not c["pass"]]
    if bad:
        problems.append(f"report checks failed: {', '.join(bad)}")
    return problems, rep


def _exceeds(problems, what, value, limit):
    if not value <= limit:
        problems.append(f"{what} = {value!r} exceeds {limit!r}")


# -- host-speed probes ---------------------------------------------------------
#
# This host's speed swings by up to 2x within seconds, because other tenants
# share its cores, and the swings last long enough to move a whole run: the
# raw op_p50_s of ten 15-second mc_small_n runs spread by 44% of its median.
# So each workload owns a probe: a fixed piece of benchmark code, sharing
# nothing with empcalc, that does the same kind of work as its ops.
# Workers time the probe between ops, and run.py multiplies each op's time
# by probe_ref_s over the mean of the probes timed just before and after
# it.  Times then read as seconds on a host where the probe takes
# probe_ref_s, about its median time on the 2-vCPU Intel Xeon this was
# written on.  Scaled, the same metric spread by 2% over five runs.

def replicate_probe(n: int, reps: int) -> float:
    """Seeded streams, Box-Muller draws and a correlation, like one Monte Carlo replicate."""
    acc = 0.0
    for i in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(i,)))
        u1, u2 = rng.random(n), rng.random(n)
        r = np.sqrt(-2.0 * np.log1p(-u1))
        x, y = r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)
        dx, dy = x - x.mean(), y - y.mean()
        acc += float(dx @ dy) / math.sqrt(float(dx @ dx) * float(dy @ dy))
    return acc


def algebra_probe() -> float:
    """Dict-of-monomials products, small eigenproblems and weighted moments of a few
    atoms, like the exact calculus."""
    a = {(i, j): 1.0 + i - j for i in range(4) for j in range(4)}
    acc = 0.0
    for _ in range(20):
        out = {}
        for (i, j), u in a.items():
            for (k, l), v in a.items():
                out[(i + k, j + l)] = out.get((i + k, j + l), 0.0) + u * v
        acc += sum(out.values())
    m = np.arange(25.0).reshape(5, 5)
    for _ in range(120):
        acc += float(np.linalg.eigvalsh(m + m.T).min())
    x = np.linspace(-2.0, 2.0, 9)
    y = 0.5 * x[::-1] + 0.1
    w = np.full(9, 1.0 / 9.0)
    for _ in range(8):
        for a in range(5):
            for b in range(5):
                v = x ** a * y ** b
                if np.all(np.isfinite(v)):
                    acc += float(w @ v)
    return acc


def csv_probe_data() -> tuple[str, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(11)
    text = "x,y\n" + "".join(f"{1e6 + i * 0.1234567891234:.17g},{-5.0 + i * 1.234e-7:.17g}\n"
                             for i in range(100_000))
    return text, rng.standard_normal(1_000_000) * 1e3 + 1e6, rng.standard_normal(1_000_000)


def csv_probe(text: str, cx: np.ndarray, cy: np.ndarray) -> float:
    """Parse 100k CSV rows to float lists and arrays, then centred moments of two 1M-long
    columns, like estimate."""
    xs, ys = [], []
    for row in csv.reader(io.StringIO(text)):
        cells = [c.strip() for c in row]
        try:
            x, y = float(cells[0]), float(cells[1])
        except ValueError:
            continue
        xs.append(x)
        ys.append(y)
    acc = float(np.asarray(xs).sum() + np.asarray(ys).sum())
    dx, dy = cx - cx.mean(), cy - cy.mean()
    return acc + float((dx ** 2 * dy ** 2).mean()) + float((dx ** 3 * dy).mean()) \
        + float((dx ** 4).mean())


def format_probe(xs: np.ndarray, ys: np.ndarray) -> int:
    """Format pairs of numpy floats as CSV text, like write_paired_csv."""
    buf = io.StringIO()
    buf.write("x,y\n")
    for x, y in zip(xs, ys):
        buf.write(f"{x:.17g},{y:.17g}\n")
    return len(buf.getvalue())


# -- Monte Carlo ops -----------------------------------------------------------

def simulate_op(index, seed, label, law_args, law_ref, n, reps):
    argv = ["simulate", *law_args, "--n", str(n), "--reps", str(reps),
            "--seed", str(op_seed(seed, index)),
            "--ks-tol", repr(ref.ks_tol(reps, n)),
            "--variance-rtol", repr(ref.variance_rtol(reps, n))]

    def check(out):
        problems, rep = _report(out)
        if not rep:
            return problems
        res = rep["results"]
        _exceeds(problems, "rho_true error", abs(res["rho_true"] - law_ref.rho), ref.EXACT_RTOL)
        _exceeds(problems, "predicted_sigma2 rel error",
                 ref.rel_error(res["predicted_sigma2"], law_ref.sigma2), ref.EXACT_RTOL)
        _exceeds(problems, "empirical_variance rel error",
                 ref.rel_error(res["empirical_variance"], law_ref.sigma2),
                 ref.variance_rtol(reps, n))
        _exceeds(problems, "|empirical_mean|", abs(res["empirical_mean"]),
                 ref.mean_atol(law_ref.sigma2, reps, n))
        _exceeds(problems, "ks_distance", res["ks_distance"], ref.ks_tol(reps, n))
        return problems

    return Op(index, label, lambda program: run_cli(program, argv), check, reps)


def _lemma1_problems(problems, predicted, empirical, ks, gram, pred_atol, cov_atol, ks_tol):
    _exceeds(problems, "predicted_cov error",
             float(np.abs(np.asarray(predicted) - gram).max()), pred_atol)
    _exceeds(problems, "empirical_cov error",
             float(np.abs(np.asarray(empirical) - gram).max()), cov_atol)
    worst = max((k for k in ks if k is not None), default=math.inf)
    _exceeds(problems, "max marginal ks", worst, ks_tol)
    return problems


def lemma1_cli_op(index, seed, n=1000, reps=2000, rho=0.5):
    gram = ref.gaussian_lemma1_gram(rho)[:3, :3]
    cov_atol = ref.cov_atol(float(gram.diagonal().max()), reps, n)
    ks_tol = ref.ks_tol(reps, n)
    argv = ["lemma1", "--law", "gaussian", "--rho", repr(rho), "--n", str(n),
            "--reps", str(reps), "--seed", str(op_seed(seed, index)),
            "--functions", "pi1,pi2,p", "--ks-tol", repr(ks_tol), "--cov-atol", repr(cov_atol)]

    def check(out):
        problems, rep = _report(out)
        if not rep:
            return problems
        res = rep["results"]
        if res["degenerate_coordinates"]:
            problems.append(f"degenerate coordinates {res['degenerate_coordinates']}")
        return _lemma1_problems(problems, res["predicted_cov"], res["empirical_cov"],
                                res["ks_per_coordinate"], gram,
                                ref.EXACT_RTOL, cov_atol, ks_tol)

    return Op(index, "lemma1 gaussian(0.5) pi1,pi2,p", lambda program: run_cli(program, argv),
              check, reps)


def lemma1_library_op(index, seed, family, n=1000, reps=2000, rho=0.5):
    """run_lemma1_experiment with cos(pi1) in the family: gamma_matrix falls back to sampling."""
    gram = ref.gaussian_lemma1_gram(rho)
    cov_atol = ref.cov_atol(float(gram.diagonal().max()), reps, n) + MC_PREDICTION_ATOL
    # the fallback mean of cos(pi1) is off by at most Z_ALPHA sd / sqrt(budget), which
    # moves G_n(cos(pi1)) by Z_ALPHA sqrt(n / budget) sd and the KS distance by 0.4 times that
    ks_tol = ref.ks_tol(reps, n) + 0.4 * ref.Z_ALPHA * math.sqrt(n / MC_FALLBACK_BUDGET)

    def call(program):
        cfg = program.simulate.ExperimentConfig(law=program.laws.GaussianLaw(rho), n=n,
                                                reps=reps, seed=op_seed(seed, index))
        return program.simulate.run_lemma1_experiment(family, cfg, cov_atol=cov_atol,
                                                      ks_tol=ks_tol)

    def check(report):
        res = report.results
        problems = [] if report.passed else [
            "report checks failed: " + ", ".join(c.name for c in report.checks if not c.passed)]
        return _lemma1_problems(problems, res["predicted_cov"], res["empirical_cov"],
                                res["ks_per_coordinate"], gram,
                                MC_PREDICTION_ATOL, cov_atol, ks_tol)

    return Op(index, "library lemma1 gaussian(0.5) pi1,pi2,p,cos(pi1)", call, check, reps)


def random_discrete_spec(rng: np.random.Generator, k: int, scale: float = 1.0,
                         shift: float = 0.0) -> dict:
    """k atoms with moderate correlation, then x -> scale x + shift, y -> y / scale - shift."""
    while True:
        xs = rng.uniform(-2.0, 2.0, k)
        ys = rng.uniform(-2.0, 2.0, k) + rng.uniform(-1.0, 1.0) * xs
        w = rng.random(k) + 0.1
        base = {"kind": "discrete", "xs": xs.tolist(), "ys": ys.tolist(),
                "weights": (w / w.sum()).tolist()}
        r = ref.LawReference(base)
        if abs(r.rho) < 0.9 and np.var(xs) > 0.05 and np.var(ys) > 0.05:
            break
    return {"kind": "discrete", "xs": (xs * scale + shift).tolist(),
            "ys": (ys / scale - shift).tolist(), "weights": base["weights"]}


# -- workloads -----------------------------------------------------------------

class Workload:
    """Base: a seeded, endless stream of ops, grouped into units."""

    name = ""
    item = ""            # what `items` counts, for the throughput metric
    unit_len = 1         # ops per unit
    trace_units = 1      # units run in the traced segment
    probe_ref_s = 1.0    # probe time that defines the reference host speed
    nominal_unit_s = None  # if set, a worker runs a fixed number of units, not a time slot

    def __init__(self, seed: int, program, ctx: dict):
        self.seed = seed
        self.program = program
        self.ctx = ctx

    def unit(self, start: int) -> list[Op]:
        return [self.op(i) for i in range(start, start + self.unit_len)]

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def warm_up(self) -> None:
        for op in self.unit(0):
            op.call(self.program)

    def untimed_checks(self) -> list[Op]:
        """Ops run once per run, after the timed ones, for correctness only."""
        return []

    def probe(self) -> None:
        raise NotImplementedError

    def time_probe(self) -> float:
        t = time.perf_counter()
        self.probe()
        return time.perf_counter() - t


class McSmallN(Workload):
    name = "mc_small_n"
    item = "replicates"
    probe_ref_s = 0.007
    trace_units = 5

    def __init__(self, seed, program, ctx):
        super().__init__(seed, program, ctx)
        self.law_ref = ref.LawReference({"kind": "gaussian", "rho": 0.5})

    def probe(self):
        replicate_probe(100, 100)

    def op(self, index):
        return simulate_op(index, self.seed, "simulate gaussian(0.5) n=100",
                           ["--law", "gaussian", "--rho", "0.5"], self.law_ref, 100, 2000)


class McLargeN(Workload):
    name = "mc_large_n"
    item = "replicates"
    probe_ref_s = 0.0075
    unit_len = len(PAIRINGS) + 5
    # A cycle mixes ops of 0.1 to 1 s, so the rank op_tail_s reads (10 ops
    # beyond) lands on another op kind when the number of cycles changes.
    # Workers that ran one or two cycles as the host's speed allowed spread
    # op_tail_s by 21% over ten runs; so each worker runs slot / 5 s cycles.
    nominal_unit_s = 5.0

    def __init__(self, seed, program, ctx):
        super().__init__(seed, program, ctx)
        f = program.functions
        cos_pi1 = f.StatFunction(lambda x, y: np.cos(x) + 0.0 * np.asarray(y, dtype=float),
                                 "cos(pi1)")
        self.family = [f.pi1, f.pi2, f.p, cos_pi1]
        self.gaussian_ref = ref.LawReference({"kind": "gaussian", "rho": 0.5})
        self.pairing_refs = [ref.LawReference({"kind": "independent", "marginal_x": mx,
                                               "marginal_y": my}) for mx, my in PAIRINGS]
        self.mixture_ref = ref.LawReference(MIXTURE_SPEC)

    def probe(self):
        replicate_probe(2000, 30)

    def op(self, index):
        cycle, pos = divmod(index, self.unit_len)
        n, reps = 2000, 2000
        if pos == 0:
            return simulate_op(index, self.seed, "simulate gaussian(0.5)",
                               ["--law", "gaussian", "--rho", "0.5"], self.gaussian_ref, n, reps)
        if pos <= len(PAIRINGS):
            mx, my = PAIRINGS[pos - 1]
            return simulate_op(index, self.seed, f"simulate independent({mx},{my})",
                               ["--law", "independent", "--mx", mx, "--my", my],
                               self.pairing_refs[pos - 1], n, reps)
        pos -= len(PAIRINGS)
        if pos == 1:
            return simulate_op(index, self.seed, "simulate mixture",
                               ["--law-json", json.dumps(MIXTURE_SPEC)], self.mixture_ref, n, reps)
        if pos == 2:
            spec = random_discrete_spec(np.random.default_rng([self.seed, cycle]), 8)
            return simulate_op(index, self.seed, "simulate discrete(8 atoms)",
                               ["--law-json", json.dumps(spec)], ref.LawReference(spec), n, reps)
        if pos == 3:
            return lemma1_cli_op(index, self.seed)
        return lemma1_library_op(index, self.seed, self.family)

    def warm_up(self):
        # each op kind once at a tiny size; the report checks may fail at this size
        for law_args in (["--law", "gaussian", "--rho", "0.5"],
                         ["--law", "independent", "--mx", "uniform_std", "--my", "rademacher"],
                         ["--law-json", json.dumps(MIXTURE_SPEC)],
                         ["--law-json", json.dumps(random_discrete_spec(
                             np.random.default_rng(self.seed), 8))]):
            run_cli(self.program, ["simulate", *law_args, "--n", "50", "--reps", "100"])
        run_cli(self.program, ["lemma1", "--law", "gaussian", "--rho", "0.5", "--n", "50",
                               "--reps", "100"])


class MomentsExact(Workload):
    """Exact calculus on a seeded list of laws; no draws and no io.

    The timed list holds centred laws only.  The discrete laws with location
    shifts and scales (ROADMAP aim 3) fail at the seed commit, most of them
    before the exact calculus has run, so timing them would make the metrics
    move when that defect is fixed.  They are an untimed correctness set
    instead, checked once per run and reported on their own.
    """

    name = "moments_exact"
    item = "laws"
    probe_ref_s = 0.0063
    GAUSSIAN_GRID = (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9)
    N_MIXTURES = 4
    N_DISCRETE = 18
    SHIFTS = (0.0, 1.0, 1e1, 1e2, 1e3, 1e4)
    SCALES = (1e-3, 1.0, 1e3)
    SHIFTED_PER_COMBINATION = 2
    unit_len = len(GAUSSIAN_GRID) + len(PAIRINGS) + N_MIXTURES + N_DISCRETE
    trace_units = 3

    def __init__(self, seed, program, ctx):
        super().__init__(seed, program, ctx)
        f = program.functions
        self.family = [f.pi1, f.pi2, f.p, f.pi1 ** 2, f.pi2 ** 2]

    def probe(self):
        algebra_probe()

    def cycle_specs(self, cycle: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, cycle])
        specs = [{"kind": "gaussian", "rho": g + rng.uniform(-0.05, 0.05)}
                 for g in self.GAUSSIAN_GRID]
        specs += [{"kind": "independent", "marginal_x": mx, "marginal_y": my}
                  for mx, my in PAIRINGS]
        for _ in range(self.N_MIXTURES):
            comps = []
            for _ in range(int(rng.integers(2, 4))):
                if rng.random() < 0.5:
                    comps.append({"kind": "gaussian", "rho": rng.uniform(-0.8, 0.8)})
                else:
                    mx, my = PAIRINGS[int(rng.integers(len(PAIRINGS)))]
                    comps.append({"kind": "independent", "marginal_x": mx, "marginal_y": my})
            w = rng.random(len(comps)) + 0.2
            specs.append({"kind": "mixture", "components": comps,
                          "weights": (w / w.sum()).tolist()})
        specs += [random_discrete_spec(rng, int(rng.integers(6, 13)))
                  for _ in range(self.N_DISCRETE)]
        return specs

    def untimed_checks(self) -> list[Op]:
        """Discrete laws under every shift and scale but (0, 1), from their own stream."""
        rng = np.random.default_rng([self.seed, 2 ** 32])
        ops = []
        for shift in self.SHIFTS:
            for scale in self.SCALES:
                if (shift, scale) == (0.0, 1.0):
                    continue
                for _ in range(self.SHIFTED_PER_COMBINATION):
                    k = int(rng.integers(6, 13))
                    spec = random_discrete_spec(rng, k, scale, shift)
                    ops.append(self._op(len(ops), spec,
                                        f"discrete({k} atoms, shift {shift:g}, scale {scale:g})"))
        return ops

    def unit(self, start):
        cycle = start // self.unit_len
        return [self._op(start + i, spec) for i, spec in enumerate(self.cycle_specs(cycle))]

    def exact_calculus(self, program, spec):
        law = program.laws.law_from_spec(spec)
        m = law.bivariate_moments()
        sigma2 = program.correlation.sigma_squared(m)
        expansion = program.correlation.correlation_expansion(m)
        pipeline = program.empirical.asymptotic_variance(expansion, law)
        g = program.empirical.gamma_matrix(self.family, law)
        return sigma2, expansion.value, pipeline, g

    def _op(self, index, spec, label=None):
        law_ref = ref.LawReference(spec)
        gram = law_ref.gram()

        def check(out):
            sigma2, rho, pipeline, g = out
            problems = []
            _exceeds(problems, "sigma2 rel error", ref.rel_error(sigma2, law_ref.sigma2),
                     ref.EXACT_RTOL)
            _exceeds(problems, "pipeline sigma2 rel error",
                     ref.rel_error(pipeline, law_ref.sigma2), ref.EXACT_RTOL)
            _exceeds(problems, "rho error", abs(rho - law_ref.rho), ref.EXACT_RTOL)
            _exceeds(problems, "gamma_matrix rel error",
                     ref.normwise_rel_error(g.entries, gram), ref.EXACT_RTOL)
            if g.method != "exact":
                problems.append(f"gamma_matrix method {g.method!r}, expected 'exact'")
            return problems

        if label is None:
            label = spec["kind"]
            if label == "discrete":
                label = f"discrete({len(spec['xs'])} atoms)"
        return Op(index, label, lambda program: self.exact_calculus(program, spec), check, 1)

    def warm_up(self):
        for spec in self.cycle_specs(0):
            try:
                self.exact_calculus(self.program, spec)
            except Exception:  # a law that fails is counted when its op is measured
                pass


class Estimate1M(Workload):
    """``empcalc estimate`` on a 1M-row CSV written by a child process at set-up."""

    name = "estimate_1m"
    item = "rows"
    probe_ref_s = 0.42
    write_probe_ref_s = 0.30
    # a fixed number of ops per worker (two at run_seconds 15 to 20): a worker
    # that ran two or three ops as the host's speed allowed moved op_tail_s
    nominal_unit_s = 3.3
    ROWS = 1_000_000
    RHO = 0.3

    def op(self, index):
        expect = self.ctx["reference"]
        argv = ["estimate", "--input", self.ctx["csv"]]

        def check(out):
            problems, rep = _report(out)
            if not rep:
                return problems
            res = rep["results"]
            if res["n"] != expect["n"]:
                problems.append(f"n = {res['n']}, expected {expect['n']}")
            for key in ("rho_n", "mu_x", "mu_y", "var_x", "var_y", "cov_xy", "m22", "m31",
                        "m13", "m40", "m04", "sigma_hat2", "z"):
                _exceeds(problems, f"{key} rel error", ref.rel_error(res[key], expect[key]),
                         ref.EXACT_RTOL)
            _exceeds(problems, "ci95 rel error",
                     ref.normwise_rel_error(res["ci95"], expect["ci95"]), ref.EXACT_RTOL)
            # p = 2 (1 - Phi(|z|)): twice the documented CDF bound
            _exceeds(problems, "p_value error", abs(res["p_value"] - expect["p_value"]),
                     2.0 * ref.NORMAL_CDF_ATOL)
            return problems

        return Op(index, "estimate 1M rows", lambda program: run_cli(program, argv),
                  check, self.ROWS)

    def warm_up(self):
        pass

    def time_probe(self):
        # the input is built for each probe and then dropped, so that it never
        # adds to the workload's peak RSS
        data = csv_probe_data()
        t = time.perf_counter()
        csv_probe(*data)
        return time.perf_counter() - t

    def time_write_probe(self) -> float:
        """The host-speed probe for the CSV write at set-up, which formats and does not parse."""
        rng = np.random.default_rng(12)
        xs = rng.standard_normal(100_000) * 1e3 + 1e6
        ys = rng.standard_normal(100_000) * 1e-3 - 5.0
        t = time.perf_counter()
        format_probe(xs, ys)
        return time.perf_counter() - t

    @classmethod
    def data(cls, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Shifted and scaled gaussian(0.3) pairs: x 1e3 + 1e6 and y 1e-3 - 5."""
        rng = np.random.default_rng([seed, 1])
        z1 = rng.standard_normal(cls.ROWS)
        z2 = rng.standard_normal(cls.ROWS)
        y = cls.RHO * z1 + math.sqrt(1.0 - cls.RHO ** 2) * z2
        return z1 * 1e3 + 1e6, y * 1e-3 - 5.0


WORKLOADS = {w.name: w for w in (McSmallN, McLargeN, MomentsExact, Estimate1M)}
