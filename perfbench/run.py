#!/usr/bin/env python3
"""Benchmark for localscores: the fit, sample and verify workloads.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`. One client in one process runs the workload's operations back to
back (a closed loop). Set-up (import, input generation from the seed, and
one warm-up of every operation kind at the tiny size) is repeated
`SETUPS` times, once before the passes and the rest between them, and
reported as its median. The run repeats passes of the workload's fixed work,
at least one, and stops before a pass that would take it past `--seconds`
seconds of pass time.

The cores of a shared host change speed by tens of percent from one second
to the next and from one minute to the next, so the set-ups and the
untraced passes each run under a `speed.SpeedProbe`, which times a fixed
kernel ten times a second, and their times are reported in reference
seconds, scaled by the speed the probes saw (see `speed.py`).
Raw wall times are printed beside them as `record=passes` and
`record=metric` lines.

Every operation's output is checked for correctness outside the timed
region on the first pass; later passes must reproduce the first pass's
outputs bit for bit, and so must earlier clean runs of the same seed, source
and environment in this checkout (recorded under `perfbench/out/`).

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics. With `--trace 1` passes alternate untraced and
traced, the JSON holds the per-layer metrics, and the spans are written to
`perfbench/out/spans-<workload>-<size>-s<seed>.jsonl`. `--workload all`
runs every workload in its own process and prints all their results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread. With a thread per core, ten 120 x 120 matrix products
# took from 1.3 ms to 160 ms on a shared 2-core host, as the threads wait
# for each other whenever the host takes a core away; with one, 1.1 ms.
for _name in BLAS_ENV:
    os.environ[_name] = "1"

from speed import SpeedProbe  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("fit", "sample", "verify")
NULL = NullTracer()

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# the parts of the environment stamp that can change a run's floating-point outputs
REFERENCE_KEYS = ("code_digest", "python", "numpy", "scipy", "nproc", "blas_threads")
SIZE = "full"
SETUPS = 5  # set-up repetitions; setup_s is their median


# ---------------------------------------------------------------------------
# environment


def code_digest() -> str:
    """Digest of the library's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted((SRC / "localscores").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() or "unavailable"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "code_digest": code_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": ",".join(f"{k}:{os.environ.get(k, 'unset')}" for k in BLAS_ENV),
    }


def record(name, /, **fields) -> str:
    """One `key=value` line in the format of `localscores.reports`."""
    return " ".join([f"record={name}"] + [f"{k}={v}" for k, v in fields.items()])


def import_seconds() -> float:
    """Time to import localscores in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import localscores; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip())


# ---------------------------------------------------------------------------
# one workload


def run_pass(ops, tracer, pass_index, reference, problems, durations, probe):
    """Run every op once; returns (wall time, ops failed). Times leave out
    the probe's samples."""
    ctx = {}
    wall, failed, outputs = 0.0, 0, {}
    for op in ops:
        tracer.op = f"{pass_index}:{op.key}"
        start = probe.mark()
        try:
            outputs[op.key] = op.run(tracer, ctx)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            outputs[op.key] = None
            problems.setdefault(op.key, []).append(f"raised {type(exc).__name__}: {exc}")
        elapsed = probe.elapsed(start)
        wall += elapsed
        if durations is not None:
            durations[op.kind].append(elapsed)
    tracer.op = None
    for op in ops:
        if op.key not in reference:
            reference[op.key] = outputs[op.key]
            if outputs[op.key] is not None:
                try:
                    problems.setdefault(op.key, []).extend(op.check(outputs[op.key], ctx))
                except Exception as exc:
                    problems.setdefault(op.key, []).append(f"check raised {type(exc).__name__}: {exc}")
        elif outputs[op.key] != reference[op.key]:
            problems.setdefault(op.key, []).append(f"pass {pass_index} output differs from pass 0")
        failed += bool(problems.get(op.key))
    return wall, failed


def compare_with_earlier_runs(name, args, reference, problems):
    """Outputs must repeat exactly across runs of one seed in one environment.

    The first clean run of a seed on a given code digest, Python, numpy,
    scipy, core count and BLAS thread setting becomes the reference; a run
    with any problem never replaces it, and a different environment starts a
    new one."""
    path = OUT / f"outputs-{name}-{args.size}-s{args.seed}.json"
    env = environment(args)
    stamp = {k: env[k] for k in REFERENCE_KEYS}
    current = {"stamp": stamp, "outputs": {k: repr(v) for k, v in reference.items()}}
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier.get("stamp") == stamp:
            for key, text in current["outputs"].items():
                if earlier["outputs"].get(key, text) != text:
                    problems.setdefault(key, []).append("output differs from an earlier run of this seed")
            return
    if any(problems.values()):
        return
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(current, indent=1))
    os.replace(tmp, path)


def percentile_line(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return {}
    p = math.floor(100 * (1 - 10 / n))
    rank = math.ceil(p / 100 * n) - 1
    return {f"p{p}": f"{sorted(values)[rank]:.6g}"}


def warm_up(workload):
    """One untimed, unchecked run of every op kind, at the tiny size."""
    ctx = {}
    for op in workload.ops(workload.make_inputs(NULL)):
        try:
            op.run(NULL, ctx)
        except Exception:  # the timed passes count and report any failure
            pass


def run_workload(name, args):
    import workloads  # imports localscores, so only after src/ is on the path

    workload = workloads.WORKLOADS[name](args.seed, args.size, OUT)
    warm = workloads.WORKLOADS[name](args.seed, "tiny", OUT)

    setup_times, setup_tracers, digests = [], [], set()
    # each samples only while entered. Pass times are scaled by the speed
    # during the untraced passes; set-up times, by the speed during set-ups
    # and passes, as the few samples in the short set-ups alone spread widely
    setup_probe, probe = SpeedProbe(), SpeedProbe()

    def set_up():
        tracer = Tracer() if args.trace else NULL
        with setup_probe:
            imported = import_seconds()
            generated = setup_probe.mark()
            inputs = workload.make_inputs(tracer)
            digests.add(workload.inputs_digest(inputs))
            warm_up(warm)
            setup_times.append(imported + setup_probe.elapsed(generated))
        setup_tracers.append(tracer)
        return inputs

    ops = workload.ops(set_up())
    # pass 0's outputs are checked, outside the timed region, and become the
    # reference every later pass must reproduce; the tiny warm-up in each
    # set-up has already run every op kind once
    reference, problems = {}, {}
    attempted, failed = 0, 0
    durations = defaultdict(list)
    walls = {False: [], True: []}
    pass_tracers = []
    measured, index = 0.0, 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        tracer = Tracer() if traced else NULL
        if traced:
            wall, bad = run_pass(ops, tracer, index, reference, problems, None, probe)
        else:
            with probe:
                wall, bad = run_pass(ops, tracer, index, reference, problems, durations, probe)
        walls[traced].append(wall)
        if traced:
            pass_tracers.append((index, tracer))
        attempted += len(ops)
        failed += bad
        measured += wall
        index += 1
        # the machine's speed drifts over seconds, so the repeated set-ups
        # are spread between the passes rather than run back to back
        if len(setup_times) < args.setups:
            set_up()
        done = walls[False] and (walls[True] or not args.trace)
        if done and measured + statistics.median(walls[False] + walls[True]) > args.seconds:
            break
    while len(setup_times) < args.setups:
        set_up()
    if len(digests) != 1:
        raise RuntimeError("inputs differ between set-ups of one seed")

    known_bad = {k for k, v in problems.items() if v}
    compare_with_earlier_runs(name, args, reference, problems)
    # an op whose output changed between runs failed in every pass of this run
    failed += sum(index for k, v in problems.items() if v and k not in known_bad)

    # raw seconds to reference seconds; like the kernel's times, the passes
    # are averaged by their mean
    scale = probe.scale()
    op_metrics = {}
    for kind in workload.kinds:
        values = [scale * v for v in durations[kind]]
        op_metrics[f"{kind}_s"] = {"value": statistics.median(values), "unit": "s", "n": len(values),
                                   **percentile_line(values)}
    result = {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "problems": {k: v for k, v in problems.items() if v},
        "ops": op_metrics,
        "passes": {"untraced": walls[False], "traced": walls[True]},
        "raw": {"wall_s": statistics.fmean(walls[False]), "setup_wall_s": statistics.median(setup_times),
                "probe_kernel_s": statistics.fmean(probe.samples)},
        "end_to_end": {
            "pass_s": scale * statistics.fmean(walls[False]),
            "setup_s": setup_probe.scale(probe) * statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if args.trace:
        import layers

        per_pass = [layers.layer_metrics(t, setup_tracers) for _, t in pass_tracers]
        metrics = {k: statistics.median(m[k][0] for m in per_pass) for k in per_pass[0]}
        units = {k: u for k, (_, u) in per_pass[0].items()}
        untraced, traced_wall = statistics.fmean(walls[False]), statistics.fmean(walls[True])
        metrics["trace.overhead_frac"] = (traced_wall - untraced) / untraced
        units["trace.overhead_frac"] = "ratio"
        for w in workloads.WORKLOADS.values():  # every workload reports every op, 0 if not its own
            for kind in w.kinds:
                metrics[f"op.{kind}_s"] = op_metrics.get(f"{kind}_s", {"value": 0.0})["value"]
                units[f"op.{kind}_s"] = "s"
        result["per_layer"] = {k: {"value": metrics[k], "unit": units[k]} for k in metrics}
        phases = [(f"setup{i}", t) for i, t in enumerate(setup_tracers)]
        phases += [(f"pass{i}", t) for i, t in pass_tracers]
        result["spans_file"] = str(write_spans(name, args, phases).relative_to(ROOT))
    for path in workload.scratch_files + warm.scratch_files:
        path.unlink(missing_ok=True)
    return result


def write_spans(name, args, phases) -> Path:
    path = OUT / f"spans-{name}-{args.size}-s{args.seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"record": "env", **environment(args)}) + "\n")
        for phase, tracer in phases:
            for span in tracer.spans:
                fh.write(json.dumps({"record": "span", "phase": phase, **span}) + "\n")
            for (count_name, op), value in sorted(tracer.counts.items(), key=str):
                fh.write(json.dumps({"record": "count", "phase": phase, "name": count_name,
                                     "op": op, "value": value}) + "\n")
    return path


# ---------------------------------------------------------------------------
# command line


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="pass time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("seed and seconds must be nonnegative")
    args.size, args.setups = SIZE, SETUPS
    return args


def print_result(result, env):
    print(record("env", **env))
    for key, problems in result["problems"].items():
        for problem in problems:
            print(record("problem", workload=result["workload"], op=key,
                         detail=json.dumps(problem).replace(" ", "_")))
    for traced, walls in result["passes"].items():
        if walls:
            print(record("passes", workload=result["workload"], pass_kind=traced,
                         wall_seconds=",".join(f"{w:.4g}" for w in walls)))
    rows = dict(result["end_to_end"])
    rows.update(result["raw"])
    rows["error_rate"] = result["failed"] / result["attempted"]
    for name, value in rows.items():
        print(record("metric", workload=result["workload"], name=name,
                     value=f"{value:.6g}", unit=END_TO_END_UNITS.get(name, "s" if name.endswith("_s") else "ratio")))
    for name, m in result["ops"].items():
        extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
        print(record("metric", workload=result["workload"], name=name,
                     value=f"{m['value']:.6g}", unit="s", **extra))


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "localscores" / "__init__.py").is_file():
        print(f"error: no localscores sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args)
    env = environment(args)
    print_result(result, env)
    block = result["per_layer"] if args.trace else {
        k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["end_to_end"].items()
    }
    if args.trace:
        print(record("spans", path=result["spans_file"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": block,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
