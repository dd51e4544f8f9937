#!/usr/bin/env python3
"""Self-test of the benchmark at the tiny size.

    python3 perfbench/selftest.py

Runs every workload once with tracing off and once with tracing on. Each run
checks every operation and requires later passes to reproduce the first
pass bit for bit (fitted parameters, verdicts, counts); the second run must
also reproduce the first run's outputs. The traced run must report nonzero
counts for the layers its workload exercises. Exits 0 when all hold.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import run

SEED = 7
# layer counts each traced workload must report as nonzero
EXERCISED = {
    "fit": ("estimation.fit.calls", "estimation.fit.additive.iterations", "estimation.fit.ps.iterations",
            "estimation.fit.mcl.iterations", "estimation.fit.conditional.iterations",
            "estimation.mle_fit.busy_s", "estimation.empirical_score.busy_s",
            "models.exact_log_z.states_per_s", "models.normalize.busy_s", "potentials.build.busy_s"),
    "sample": ("sampling.gibbs_sample.sweeps", "sampling.ais_log_z.site_updates_per_s",
               "sampling.write_samples.bytes", "sampling.read_samples.rows_per_s",
               "estimation.negative_log_loss.rows_per_s", "sampling.exact_sample.busy_s"),
    "verify": ("graphs.diagnose.points_per_s", "graphs.hamming_graph.busy_s", "scoring.score.calls",
               "scoring.score.logf_queries", "models.log_f_batch.calls", "oracle.checks",
               "oracle.properness.busy_s", "oracle.block_cover_connectivity.busy_s", "cli.main.calls"),
}


def main() -> int:
    if not (run.SRC / "localscores" / "__init__.py").is_file():
        print(f"error: no localscores sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    bad = 0
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            args = SimpleNamespace(workload=name, seed=SEED, seconds=0.0, trace=trace, size="tiny", setups=1)
            result = run.run_workload(name, args)
            problems = [f"{op}: {p}" for op, ps in result["problems"].items() for p in ps]
            if trace:
                layers = result["per_layer"]
                problems += [f"{m} is zero" for m in EXERCISED[name] if not layers[m]["value"] > 0]
                if layers["oracle.unexpected_failures"]["value"] != 0:
                    problems.append("oracle reported unexpected failures")
            status = "ok" if not problems and result["failed"] == 0 else "FAIL"
            print(run.record("selftest", workload=name, trace=trace, attempted=result["attempted"],
                             failed=result["failed"], status=status))
            for problem in problems:
                print(f"  {problem}")
            bad += status != "ok"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
