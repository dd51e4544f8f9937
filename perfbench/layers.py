"""Per-layer metrics from the spans and counts of one traced pass.

Busy times cover one set-up (the median over the traced set-ups) plus one
pass of the workload's fixed work; counts and rates cover the pass. A layer
that a workload does not call reports 0.
"""

from __future__ import annotations

import statistics

from workloads import ORACLE_CATEGORIES

FIT_CLASSES = ("additive", "ps", "mcl", "conditional")


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, setup_tracers) -> dict[str, tuple[float, str]]:
    def busy(name):
        return tracer.busy(name) + statistics.median(t.busy(name) for t in setup_tracers)

    def ops_of(kind):
        return {s["op"] for s in tracer.spans if s["op"] and s["op"].split(":", 1)[1].startswith(kind + "/")}

    m = {}
    fits = tracer.calls("estimation.fit") + tracer.calls("estimation.mle_fit")
    m["estimation.fit.calls"] = (tracer.calls("estimation.fit"), "count")
    m["estimation.fit.busy_s"] = (tracer.busy("estimation.fit"), "s")
    m["estimation.fit.converged_ratio"] = (_rate(tracer.total("fit.converged"), fits), "ratio")
    for cls in FIT_CLASSES:
        ops = ops_of(f"fit_{cls}")
        iterations = tracer.total("fit.iterations", ops)
        seconds = tracer.busy("estimation.fit", ops) + tracer.busy("estimation.mle_fit", ops)
        m[f"estimation.fit.{cls}.iterations"] = (iterations, "count")
        m[f"estimation.fit.{cls}.s_per_iteration"] = (_rate(seconds, iterations), "s")
    m["estimation.mle_fit.busy_s"] = (tracer.busy("estimation.mle_fit"), "s")
    m["estimation.empirical_score.busy_s"] = (tracer.busy("estimation.empirical_score"), "s")
    loss_s = tracer.busy("estimation.negative_log_loss")
    m["estimation.negative_log_loss.busy_s"] = (loss_s, "s")
    m["estimation.negative_log_loss.rows_per_s"] = (_rate(tracer.total("negative_log_loss.rows"), loss_s), "1/s")

    m["models.normalize.busy_s"] = (busy("models.normalize"), "s")
    log_z_s = tracer.busy("models.exact_log_z")
    m["models.exact_log_z.busy_s"] = (log_z_s, "s")
    m["models.exact_log_z.states_per_s"] = (_rate(tracer.total("exact_log_z.states"), log_z_s), "1/s")
    m["models.log_f_batch.calls"] = (tracer.calls("models.log_f_batch"), "count")
    m["models.log_f_batch.busy_s"] = (tracer.busy("models.log_f_batch"), "s")

    m["potentials.build.busy_s"] = (busy("potentials.build"), "s")

    m["sampling.exact_sample.busy_s"] = (busy("sampling.exact_sample"), "s")
    gibbs_s = tracer.busy("sampling.gibbs_sample")
    sweeps = tracer.total("gibbs_sample.sweeps")
    m["sampling.gibbs_sample.sweeps"] = (sweeps, "count")
    m["sampling.gibbs_sample.sweeps_per_s"] = (_rate(sweeps, gibbs_s), "1/s")
    ais_s = tracer.busy("sampling.ais_log_z")
    m["sampling.ais_log_z.busy_s"] = (ais_s, "s")
    m["sampling.ais_log_z.site_updates_per_s"] = (_rate(tracer.total("ais_log_z.site_updates"), ais_s), "1/s")
    m["sampling.write_samples.busy_s"] = (busy("sampling.write_samples"), "s")
    m["sampling.write_samples.bytes"] = (tracer.total("write_samples.bytes"), "B")
    m["sampling.read_samples.rows_per_s"] = (
        _rate(tracer.total("read_samples.rows"), tracer.busy("sampling.read_samples")), "1/s")

    m["graphs.hamming_graph.busy_s"] = (tracer.busy("graphs.hamming_graph"), "s")
    diagnose_s = tracer.busy("graphs.diagnose")
    m["graphs.diagnose.busy_s"] = (diagnose_s, "s")
    m["graphs.diagnose.points_per_s"] = (_rate(tracer.total("diagnose.points"), diagnose_s), "1/s")

    m["scoring.score.calls"] = (tracer.calls("scoring.score"), "count")
    m["scoring.score.busy_s"] = (tracer.busy("scoring.score"), "s")
    m["scoring.score.self_s"] = (tracer.self_time("scoring.score"), "s")
    m["scoring.score.logf_queries"] = (tracer.total("log_f_batch.queries"), "count")

    for category in ORACLE_CATEGORIES:
        m[f"oracle.{category}.busy_s"] = (tracer.busy(f"oracle.{category}"), "s")
    m["oracle.checks"] = (tracer.total("oracle.checks"), "count")
    m["oracle.unexpected_failures"] = (tracer.total("oracle.unexpected_failures"), "count")

    m["cli.main.calls"] = (tracer.calls("cli.main"), "count")
    m["cli.main.busy_s"] = (tracer.busy("cli.main"), "s")
    m["cli.main.self_s"] = (tracer.self_time("cli.main"), "s")
    return m
