"""The benchmark's three workloads: fit, sample and verify.

Each workload builds its inputs from the seed (`make_inputs`) and lists the
operations of one pass of its fixed work (`ops`). An operation returns an
output made only of integers, booleans, strings, float hex strings and array
digests, so that two passes, or a traced and an untraced pass, can be
compared for bit-identity. Each operation has a correctness check that runs
outside the timed region.

Boltzmann couplings are drawn at small scales on purpose: at scale 0.1 the
D=10 fits converge in 10-40 gradient steps on every seed, while at 0.3 the
ps fit needs 350-1000 steps depending on the seed, which makes a fit's time
depend more on the seed than on the code.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import localscores as ls
from localscores import cli
from localscores.reports import parse_record
from tracing import LineClock

AIS_TOLERANCE = 0.1  # nats, as in acceptance criterion 7
OBJECTIVE_RTOL = 1e-8
CLOSED_FORM_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    kind: str  # the metric stem: the op's time is reported as `<kind>_s`
    key: str  # unique within a pass
    run: Callable  # (tracer, ctx) -> output; ctx is shared by the ops of one pass
    check: Callable  # (output, ctx) -> list of problems, empty when correct


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def fx(value) -> str:
    return float(value).hex()


def random_boltzmann(gen, dim: int, scale: float) -> ls.BoltzmannModel:
    wt = gen.standard_normal((dim, dim)) * scale
    w = (wt + wt.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return ls.BoltzmannModel.from_matrix(w)


def _rel_close(value, reference, tol) -> bool:
    return math.isfinite(value) and abs(value - reference) <= tol * max(abs(reference), 1e-300)


# ---------------------------------------------------------------------------
# fit


class FitWorkload:
    """Fits every class of scores on each seeded dataset, then evaluates the
    fitted models. One pass covers `datasets` datasets."""

    name = "fit"
    kinds = ("fit_additive", "fit_ps", "fit_mcl", "fit_conditional", "eval")
    SIZES = {
        "full": dict(datasets=16, dim=10, mcl_dim=5, n=2000, n_test=2000, labels=10, features=32),
        "tiny": dict(datasets=1, dim=5, mcl_dim=4, n=1000, n_test=1000, labels=10, features=16),
    }
    SCALE = 0.1  # Boltzmann coupling scale
    THETA_SCALE = 1.0  # conditional weights; features get variance 2/d
    ADDITIVE = (("pl_r1", "pl", 1), ("pl_r2", "pl", 2), ("rm_r1", "rm", 1))
    CONDITIONAL = ("pl", "ps:1", "mcl")
    UNCONDITIONAL = ls.FitConfig(max_iterations=5000, gradient_tolerance=1e-4, l2_penalty=1e-2)
    CONDITIONAL_CONFIG = ls.FitConfig(max_iterations=5000, gradient_tolerance=1e-4, l2_penalty=1e-3)

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = dict(self.SIZES[size])
        self.scratch_files = ()

    def make_inputs(self, tracer):
        s = self.size
        data = []
        for k in range(s["datasets"]):
            d = {"k": k}
            for tag, dim in (("b", s["dim"]), ("m", s["mcl_dim"])):
                gen = np.random.default_rng([self.seed, 1, k, dim])
                model = random_boltzmann(gen, dim, self.SCALE)
                with tracer.span("models.normalize"):
                    p = ls.normalize(model)
                with tracer.span("sampling.exact_sample"):
                    d[tag + "_train"] = ls.exact_sample(p, s["n"], ls.RngStream(self.seed, 100 + 4 * k + (tag == "m")))
                    d[tag + "_test"] = ls.exact_sample(p, s["n_test"], ls.RngStream(self.seed, 102 + 4 * k + (tag == "m")))
            gen = np.random.default_rng([self.seed, 2, k])
            n_all = s["n"] + s["n_test"]
            x = gen.standard_normal((n_all, s["features"])) * math.sqrt(2.0 / s["features"])
            theta = gen.standard_normal((s["labels"], s["features"])) * self.THETA_SCALE
            logits = x @ theta.T
            prob = np.exp(logits - logits.max(axis=1, keepdims=True))
            prob /= prob.sum(axis=1, keepdims=True)
            u = gen.random(n_all)
            y = np.minimum((prob.cumsum(axis=1) < u[:, None]).sum(axis=1), s["labels"] - 1)
            d["x_train"], d["x_test"] = x[: s["n"]], x[s["n"]:]
            d["y_train"], d["y_test"] = y[: s["n"]], y[s["n"]:]
            data.append(d)
        return data

    def inputs_digest(self, data) -> str:
        return digest(np.concatenate([np.asarray(v, dtype=np.float64).ravel()
                                      for d in data for _, v in sorted(d.items()) if np.ndim(v)]))

    def ops(self, data) -> list[Op]:
        out = []
        for d in data:
            k = d["k"]
            out += [
                Op("fit_additive", f"fit_additive/{k}", self._fit_additive(d), self._check_fits(d, "b")),
                Op("fit_ps", f"fit_ps/{k}", self._fit_ps(d), self._check_fits(d, "b")),
                Op("fit_mcl", f"fit_mcl/{k}", self._fit_mcl(d), self._check_fits(d, "m")),
                Op("fit_conditional", f"fit_conditional/{k}", self._fit_conditional(d), self._check_fits(d, None)),
                Op("eval", f"eval/{k}", self._eval(d), self._check_eval(d)),
            ]
        return out

    # -- operations -------------------------------------------------------

    def _fit_boltzmann(self, tracer, ctx, key, spec_text, dim, radius, train):
        with tracer.span("potentials.build"):
            target = ls.bind_spec(ls.parse_score_spec(spec_text), ls.HypercubeNeighborhood(dim, radius))
        with tracer.span("estimation.fit"):
            res = ls.fit(target, ls.BoltzmannModel.zeros(dim), train, self.UNCONDITIONAL)
        return self._record(tracer, ctx, key, target, res)

    @staticmethod
    def _record(tracer, ctx, key, target, res):
        tracer.count("fit.iterations", res.iterations_used)
        tracer.count("fit.converged", int(res.converged))
        ctx[key] = (target, res)
        params = getattr(res.parameters, "upper", None)
        if params is None:
            params = res.parameters.theta
        return (key, res.iterations_used, res.converged, fx(res.final_objective),
                fx(res.gradient_norm), digest(params))

    def _fit_additive(self, d):
        def run(tracer, ctx):
            return tuple(
                self._fit_boltzmann(tracer, ctx, (d["k"], name), kind, self.size["dim"], radius, d["b_train"])
                for name, kind, radius in self.ADDITIVE
            )
        return run

    def _fit_ps(self, d):
        def run(tracer, ctx):
            return (self._fit_boltzmann(tracer, ctx, (d["k"], "ps_r1"), "ps:1", self.size["dim"], 1, d["b_train"]),)
        return run

    def _fit_mcl(self, d):
        dim = self.size["mcl_dim"]
        blocks = ";".join(str(i) for i in range(1, dim + 1))  # singleton blocks

        def run(tracer, ctx):
            return tuple(
                self._fit_boltzmann(tracer, ctx, (d["k"], kind), f"{kind}:{blocks}", dim, 1, d["m_train"])
                for kind in ("mcl", "cl")
            )
        return run

    def _fit_conditional(self, d):
        labels, features = self.size["labels"], self.size["features"]

        def run(tracer, ctx):
            out = []
            for spec_text in self.CONDITIONAL:
                with tracer.span("potentials.build"):
                    target = ls.bind_spec(ls.parse_score_spec(spec_text), ls.label_band_graph(labels, 1))
                with tracer.span("estimation.fit"):
                    res = ls.fit(target, ls.ConditionalModel.zeros(labels, features), d["y_train"],
                                 self.CONDITIONAL_CONFIG, features=d["x_train"])
                out.append(self._record(tracer, ctx, (d["k"], "cond_" + spec_text), target, res))
            with tracer.span("estimation.mle_fit"):
                res = ls.mle_fit(ls.ConditionalModel.zeros(labels, features), d["y_train"],
                                 self.CONDITIONAL_CONFIG, features=d["x_train"])
            out.append(self._record(tracer, ctx, (d["k"], "cond_mle"), None, res))
            return tuple(out)
        return run

    def _eval(self, d):
        k = d["k"]

        def run(tracer, ctx):
            out = []
            for name, test in (("pl_r1", "b"), ("pl_r2", "b"), ("rm_r1", "b"), ("ps_r1", "b"),
                               ("mcl", "m"), ("cl", "m")):
                target, res = ctx[(k, name)]
                model, test_idx = res.parameters, d[test + "_test"]
                with tracer.span("models.exact_log_z"):
                    log_z = ls.exact_log_z(model)
                tracer.count("exact_log_z.states", model.space.size)
                with tracer.span("estimation.negative_log_loss"):
                    loss = ls.negative_log_loss(model, test_idx, log_z=log_z)
                tracer.count("negative_log_loss.rows", test_idx.size)
                with tracer.span("estimation.empirical_score"):
                    held_out = ls.empirical_score(target, model, test_idx)
                ctx[("eval", k, name)] = (loss, model.dim * math.log(2.0), held_out)
                out.append((name, fx(log_z), fx(loss), fx(held_out)))
            for spec_text in self.CONDITIONAL + ("mle",):
                target, res = ctx[(k, "cond_" + spec_text)]
                model = res.parameters
                with tracer.span("estimation.negative_log_loss"):
                    loss = ls.negative_log_loss(model, d["y_test"], features=d["x_test"])
                tracer.count("negative_log_loss.rows", d["y_test"].size)
                held_out = loss  # the log score is the MLE fit's own score
                if target is not None:
                    with tracer.span("estimation.empirical_score"):
                        held_out = ls.empirical_score(target, model, d["y_test"], features=d["x_test"])
                ctx[("eval", k, "cond_" + spec_text)] = (loss, math.log(model.num_labels), held_out)
                out.append(("cond_" + spec_text, fx(loss), fx(held_out)))
            return tuple(out)
        return run

    # -- checks -----------------------------------------------------------

    def _check_fits(self, d, data_tag):
        def check(output, ctx):
            problems = []
            for row in output:
                key = row[0]
                target, res = ctx[key]
                if not res.converged:
                    problems.append(f"{key[1]}: not converged after {res.iterations_used} iterations")
                if data_tag is not None:
                    problems += self._objective_matches_scores(key[1], target, res, d[data_tag + "_train"])
            return problems
        return check

    def _objective_matches_scores(self, name, target, res, train):
        """The fit's objective, minus its l2 term, must equal the mean of
        per-point scores over the training set."""
        family, standard_cl = target
        model = res.parameters
        logs = model.log_f_batch(np.arange(model.space.size))
        point_score = ls.standard_cl_score if standard_cl else ls.score
        states, counts = np.unique(train, return_counts=True)
        mean = float(sum(c * point_score(family, int(y), logs) for y, c in zip(states, counts)) / counts.sum())
        expected = res.final_objective - self.UNCONDITIONAL.l2_penalty * float(model.upper @ model.upper)
        if _rel_close(mean, expected, OBJECTIVE_RTOL):
            return []
        return [f"{name}: objective {expected!r} but mean per-point score {mean!r}"]

    @staticmethod
    def _check_eval(d):
        def check(output, ctx):
            problems = []
            for row in output:
                loss, uniform, held_out = ctx[("eval", d["k"], row[0])]
                if not loss < uniform:
                    problems.append(f"{row[0]}: test loss {loss!r} not below uniform {uniform!r}")
                if not math.isfinite(held_out):
                    problems.append(f"{row[0]}: held-out score {held_out!r}")
            return problems
        return check


# ---------------------------------------------------------------------------
# sample


class SampleWorkload:
    """A Gibbs chain written to a sample file, AIS log Z, and a sample file
    read back and scored with the exact log Z."""

    name = "sample"
    kinds = ("sample", "logz", "load_eval")
    SIZES = {
        "full": dict(gibbs_dim=8, gibbs_n=20000, burn_in=800, ais_dim=16, temperatures=1000, chains=100,
                     rows=50000),
        "tiny": dict(gibbs_dim=4, gibbs_n=2000, burn_in=400, ais_dim=6, temperatures=200, chains=20, rows=500),
    }
    SCALE = 0.3  # coupling scale at which 20000 Gibbs sweeps mix on every seed tried

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = dict(self.SIZES[size])
        stem = workdir / f"sample-{size}-s{seed}"
        self.gibbs_path = Path(f"{stem}-gibbs.txt")
        self.load_path = Path(f"{stem}-load.txt")
        self.scratch_files = (self.gibbs_path, self.load_path)

    def make_inputs(self, tracer):
        s = self.size
        gibbs_model = random_boltzmann(np.random.default_rng([self.seed, 3, 0]), s["gibbs_dim"], self.SCALE)
        ais_model = random_boltzmann(np.random.default_rng([self.seed, 3, 1]), s["ais_dim"], self.SCALE)
        with tracer.span("models.normalize"):
            p = ls.normalize(ais_model)
        with tracer.span("sampling.exact_sample"):
            rows = ls.exact_sample(p, s["rows"], ls.RngStream(self.seed, 21))
        with tracer.span("sampling.write_samples"):
            ls.write_samples(self.load_path, ais_model.space, rows, self.seed)
        return {"gibbs_model": gibbs_model, "ais_model": ais_model, "rows": rows}

    def inputs_digest(self, inputs) -> str:
        return digest(np.concatenate([inputs["gibbs_model"].upper, inputs["ais_model"].upper,
                                      inputs["rows"].astype(np.float64)]))

    def ops(self, inputs) -> list[Op]:
        return [
            Op("sample", "sample", self._sample(inputs), self._check_sample(inputs)),
            Op("logz", "logz", self._logz(inputs), self._check_logz(inputs)),
            Op("load_eval", "load_eval", self._load_eval(inputs), self._check_load_eval(inputs)),
        ]

    def _sample(self, inputs):
        model, n, burn_in = inputs["gibbs_model"], self.size["gibbs_n"], self.size["burn_in"]
        thinning = 1

        def run(tracer, ctx):
            with tracer.span("sampling.gibbs_sample"):
                idx = ls.gibbs_sample(model, n, burn_in=burn_in, thinning=thinning,
                                      rng=ls.RngStream(self.seed, 31))
            tracer.count("gibbs_sample.sweeps", burn_in + n * thinning)
            with tracer.span("sampling.write_samples"):
                ls.write_samples(self.gibbs_path, model.space, idx, self.seed)
            tracer.count("write_samples.bytes", self.gibbs_path.stat().st_size)
            ctx["gibbs"] = idx
            return (digest(idx), self.gibbs_path.stat().st_size)
        return run

    def _check_sample(self, inputs):
        model = inputs["gibbs_model"]

        def check(output, ctx):
            problems = []
            idx = ctx["gibbs"]
            _, back, _ = ls.read_samples(self.gibbs_path)
            if not np.array_equal(back, idx):
                problems.append("sample file read back differs from the chain")
            # E[TV] <= sqrt(|S|/n)/2 for i.i.d. draws; the factor 2 allows for
            # the chain's autocorrelation
            p = ls.normalize(model).weights
            tv = 0.5 * float(np.abs(np.bincount(idx, minlength=p.size) / idx.size - p).sum())
            bound = math.sqrt(p.size / idx.size)
            if not tv <= bound:
                problems.append(f"Gibbs total variation {tv:.4f} above {bound:.4f}")
            return problems
        return check

    def _logz(self, inputs):
        model = inputs["ais_model"]
        config = ls.AisConfig(num_temperatures=self.size["temperatures"], num_chains=self.size["chains"])

        def run(tracer, ctx):
            with tracer.span("sampling.ais_log_z"):
                estimate, std_error = ls.ais_log_z(model, config, ls.RngStream(self.seed, 32))
            tracer.count("ais_log_z.site_updates",
                         (config.num_temperatures - 1) * config.num_chains * model.dim
                         * config.sweeps_per_temperature)
            ctx["ais"] = estimate
            return (fx(estimate), fx(std_error))
        return run

    @staticmethod
    def _check_logz(inputs):
        def check(output, ctx):
            exact = ls.exact_log_z(inputs["ais_model"])
            err = abs(ctx["ais"] - exact)
            return [] if err <= AIS_TOLERANCE else [f"AIS log Z off by {err:.4f} from exact {exact!r}"]
        return check

    def _load_eval(self, inputs):
        def run(tracer, ctx):
            with tracer.span("sampling.read_samples"):
                space, rows, file_seed = ls.read_samples(self.load_path)
            tracer.count("read_samples.rows", rows.size)
            model = inputs["ais_model"]
            with tracer.span("models.exact_log_z"):
                log_z = ls.exact_log_z(model)
            tracer.count("exact_log_z.states", model.space.size)
            with tracer.span("estimation.negative_log_loss"):
                loss = ls.negative_log_loss(model, rows, log_z=log_z)
            tracer.count("negative_log_loss.rows", rows.size)
            ctx["load"] = (space, rows, file_seed, loss)
            return (digest(rows), fx(log_z), fx(loss))
        return run

    def _check_load_eval(self, inputs):
        def check(output, ctx):
            space, rows, file_seed, loss = ctx["load"]
            problems = []
            if not np.array_equal(rows, inputs["rows"]) or file_seed != self.seed:
                problems.append("sample file read back differs from what was written")
            if space.spec_string() != inputs["ais_model"].space.spec_string():
                problems.append(f"sample file space {space.spec_string()}")
            uniform = inputs["ais_model"].dim * math.log(2.0)
            if not loss < uniform:
                problems.append(f"loss {loss!r} not below uniform {uniform!r}")
            return problems
        return check


# ---------------------------------------------------------------------------
# verify


ORACLE_CATEGORIES = ("properness", "coincidence", "score_paths", "divergence_identity",
                     "block_cover_connectivity")


class VerifyWorkload:
    """Graph diagnostics for both potential classes, single-point scores far
    beyond enumeration size, and the oracle suite run through the CLI."""

    name = "verify"
    kinds = ("diagnose", "score", "check")
    SIZES = {
        "full": dict(diag_dim=9, score_dim=32, trials=50),
        "tiny": dict(diag_dim=4, score_dim=8, trials=2),
    }
    SCORE_SCALE = 0.1
    SCORE_KINDS = ("pl", "dp:1", "ps:1")

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = dict(self.SIZES[size])
        self.scratch_files = ()

    def make_inputs(self, tracer):
        dim = self.size["score_dim"]
        gen = np.random.default_rng([self.seed, 4, 0])
        model = random_boltzmann(gen, dim, self.SCORE_SCALE)
        point = int(gen.integers(0, 2 ** dim))
        return {"model": model, "point": point}

    def inputs_digest(self, inputs) -> str:
        return digest(np.append(inputs["model"].upper, inputs["point"]))

    def ops(self, inputs) -> list[Op]:
        return [
            Op("diagnose", "diagnose/strictly-convex", self._diagnose("strictly-convex"), self._check_diagnose),
            Op("diagnose", "diagnose/pseudo-spherical", self._diagnose("pseudo-spherical"), self._check_diagnose),
            Op("score", "score", self._score(inputs), self._check_score(inputs)),
            Op("check", "check", self._check_suite, self._check_check),
        ]

    def _diagnose(self, potential_class):
        dim = self.size["diag_dim"]

        def run(tracer, ctx):
            with tracer.span("graphs.hamming_graph"):
                graph = ls.hamming_graph(dim, 1)
            with tracer.span("graphs.diagnose"):
                result = ls.diagnose(graph, range(graph.space.size), potential_class)
            tracer.count("diagnose.points", graph.space.size)
            return dataclasses.astuple(result)
        return run

    @staticmethod
    def _check_diagnose(output, ctx):
        # radius-1 hypercube facts: every point is covered, G0 is connected,
        # and G0' splits into the two parity classes
        (covers_n, covers_b, g0_connected, g0prime_connected, components,
         potential_class, guaranteed) = output
        problems = []
        if not (covers_n and covers_b and g0_connected):
            problems.append(f"{potential_class}: coverage/G0 facts {output}")
        if g0prime_connected or components != 2:
            problems.append(f"{potential_class}: G0' has {components} components, expected 2")
        if guaranteed != (potential_class == "strictly-convex"):
            problems.append(f"{potential_class}: guaranteed={guaranteed}")
        return problems

    def _score(self, inputs):
        model, point, dim = inputs["model"], inputs["point"], self.size["score_dim"]

        def run(tracer, ctx):
            queries = 0

            def log_f(i):
                nonlocal queries
                queries += 1
                if tracer.enabled:
                    with tracer.span("models.log_f_batch"):
                        return model.log_f_batch([i])[0]
                return model.log_f_batch([i])[0]

            out = []
            for spec_text in self.SCORE_KINDS:
                with tracer.span("potentials.build"):
                    family = ls.parse_score_spec(spec_text).family(ls.HypercubeNeighborhood(dim, 1))
                queries = 0
                with tracer.span("scoring.score"):
                    value = ls.score(family, point, log_f)
                tracer.count("log_f_batch.queries", queries)
                ctx[("score", spec_text)] = (family, value)
                # the query count is part of the output, so it must repeat exactly
                out.append((spec_text, fx(value), queries))
            return tuple(out)
        return run

    def _check_score(self, inputs):
        model, point = inputs["model"], inputs["point"]

        def check(output, ctx):
            problems = []
            for spec_text in self.SCORE_KINDS:
                family, value = ctx[("score", spec_text)]
                # every point within two flips of `point`, evaluated in one batch
                near = np.unique(np.concatenate([family.neighbors(int(z)) for z in family.neighbors(point)]
                                                + [family.neighbors(point), [point]]))
                table = dict(zip(near.tolist(), model.log_f_batch(near).tolist()))
                closed = ls.named_closed_form_score(family, point, table.__getitem__)
                if not abs(value - closed) <= CLOSED_FORM_TOL * max(1.0, abs(closed)):
                    problems.append(f"{spec_text}: score {value!r} vs closed form {closed!r}")
            return problems
        return check

    def _check_suite(self, tracer, ctx):
        clock = LineClock()
        argv = ["check", "--seed", str(self.seed), "--trials", str(self.size["trials"])]
        with contextlib.redirect_stdout(clock), tracer.span("cli.main") as main_span:
            code = cli.main(argv)
        lines = [line for _, line in clock.lines]
        if tracer.enabled:
            # the interval that ends at each `record=check` line is that check's time
            previous = main_span["start"]
            for stamp, line in clock.lines:
                if line.startswith("record=check "):
                    name = parse_record(line)["name"]
                    category = next(c for c in ORACLE_CATEGORIES if name.startswith(c))
                    tracer.add_span(f"oracle.{category}", previous, stamp, main_span["id"])
                    tracer.count("oracle.checks")
                previous = stamp
            suite = parse_record(lines[-1])
            tracer.count("oracle.unexpected_failures", int(suite.get("unexpected_failures", -1)))
        return (code, tuple(lines))

    @staticmethod
    def _check_check(output, ctx):
        code, lines = output
        suite = parse_record(lines[-1]) if lines else {}
        checks = sum(line.startswith("record=check ") for line in lines)
        if code == 0 and suite.get("unexpected_failures") == "0" and suite.get("checks") == str(checks):
            return []
        return [f"check exited {code}: {lines[-1] if lines else 'no output'}"]


WORKLOADS = {w.name: w for w in (FitWorkload, SampleWorkload, VerifyWorkload)}
