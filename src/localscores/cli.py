"""Batch command-line harness.

Subcommands: `graph` (neighborhood diagnostics), `fit` (score/MLE
minimization from a JSON config), `eval` (test losses with exact or annealed
log-partition), `sample` (exact or Gibbs), `check` (the oracle suite),
`classify` (conditional prediction), `ingest` (digit-image CSV preparation).

Exit codes: 0 success, 1 oracle-check failure, 2 usage or I/O errors. Every
command is deterministic given its config and seed; the default seed comes
from the LOCALSCORES_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, LocalScoresError
from .estimation import (
    FitConfig,
    classify_batch,
    fit,
    mle_fit,
    negative_log_loss,
    test_error,
)
from .graphs import (
    cl_neighborhood,
    diagnose,
    hamming_graph,
    is_connected,
    label_band_graph,
    parse_blocks,
    write_edge_list,
)
from .models import (
    BoltzmannModel,
    ConditionalModel,
    TabularModel,
    exact_log_z,
    load_model,
    normalize,
    save_model,
)
from .oracle import DEMONSTRATION_CHECKS, standard_check_registry
from .potentials import HypercubeNeighborhood, ScoreSpec, parse_score_spec
from .reports import format_record
from .sampling import AisConfig, RngStream, ais_log_z, exact_sample, gibbs_sample, read_samples, write_samples
from .scoring import rank_condition
from .spaces import SampleSpace, parse_space_spec

SEED_ENV_VAR = "LOCALSCORES_SEED"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


# ---------------------------------------------------------------------------
# graph


def _build_graph(space: SampleSpace, radius, blocks_text):
    if blocks_text is not None:
        if space.kind != "hypercube":
            raise InputError("block systems need a hypercube space")
        system = parse_blocks(blocks_text, space.dim)
        graph, _ = cl_neighborhood(system)
        return graph, system
    if radius is None:
        raise InputError("give either --radius or --blocks")
    if space.kind == "hypercube":
        return hamming_graph(space.dim, radius), None
    if space.kind == "labels":
        return label_band_graph(space.size, radius), None
    raise InputError("enumerated spaces need an explicit edge list; use the library API")


def cmd_graph(args) -> int:
    space = parse_space_spec(args.space)
    graph, system = _build_graph(space, args.radius, args.blocks)
    active = (
        [int(t) for t in args.y0.split(",")] if args.y0 else range(space.size)
    )
    if args.export:
        write_edge_list(graph, args.export)
    if args.potential:
        spec = parse_score_spec(args.potential)
        klass = "pseudo-spherical" if spec.kind == "ps" else "strictly-convex"
        diag = diagnose(graph, active, klass)
        guaranteed = diag.guaranteed
        rank_ok = None
        if spec.kind in ("cl", "mcl") and system is not None:
            rank_ok = rank_condition(system)
            guaranteed = guaranteed and rank_ok
        fields = dict(
            record="graph_diagnostics",
            space=space.spec_string(),
            potential=spec.text(),
            covers_n=diag.covers_n,
            covers_b=diag.covers_b,
            g0_connected=diag.g0_connected,
            g0prime_connected=diag.g0prime_connected,
            g0prime_components=diag.component_count_g0prime,
            guaranteed=guaranteed,
        )
        if rank_ok is not None:
            fields["rank_condition"] = rank_ok
        print(format_record(**fields))
        word = "guaranteed" if guaranteed else "NOT guaranteed"
        print(f"coincidence {word}; G0' components: {diag.component_count_g0prime}")
    else:
        connected = is_connected(graph)
        if system is not None:
            cover = system.covers_all_coordinates()
            print(format_record(
                record="graph_summary", space=space.spec_string(),
                blocks=system.spec_string(), block_cover=cover, connected=connected,
            ))
            print(
                f"cover {'holds' if cover else 'fails'}; "
                f"{'connected' if connected else 'disconnected'}"
            )
        else:
            print(format_record(
                record="graph_summary", space=space.spec_string(),
                radius=args.radius, edges=graph.num_edges, connected=connected,
            ))
            print("connected" if connected else "disconnected")
    return 0


# ---------------------------------------------------------------------------
# fit


@dataclass
class ExperimentConfig:
    score: str = "pl"
    space: str = ""
    radius: int | None = None
    blocks: str | None = None
    model: str = "boltzmann"
    objective: str = "score"  # or "mle"
    train: object = None  # path, or {"model": path, "n": int, "sampler": ...}
    test: str | None = None
    seed: int = field(default_factory=_default_seed)
    n_train: int | None = None
    n_test: int | None = None
    out_model: str | None = None
    report: str | None = None
    fit: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        known = set(ExperimentConfig.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        cfg = ExperimentConfig(**doc)
        if not cfg.space:
            raise InputError("config needs a `space`")
        if cfg.model not in ("boltzmann", "tabular", "conditional"):
            raise InputError(f"unknown model kind {cfg.model!r}")
        if cfg.objective not in ("score", "mle"):
            raise InputError(f"unknown objective {cfg.objective!r}")
        if cfg.blocks is not None and not cfg.space.startswith("hypercube"):
            raise InputError("blocks only combine with hypercube spaces")
        if cfg.train is None:
            raise InputError("config needs a `train` data source")
        if cfg.model == "boltzmann" and not cfg.space.startswith("hypercube"):
            raise InputError("Boltzmann models live on hypercube spaces")
        return cfg

    def fit_config(self) -> FitConfig:
        return FitConfig(**self.fit)


def _apply_overrides(doc: dict, sets: list[str]) -> dict:
    for item in sets:
        key, sep, raw = item.partition("=")
        if not sep:
            raise InputError(f"--set expects key=value, got {item!r}")
        try:
            doc[key] = json.loads(raw)
        except json.JSONDecodeError:
            doc[key] = raw
    return doc


def _score_graph(spec: ScoreSpec, space: SampleSpace, radius):
    """The neighborhood the score binds to; implicit on hypercubes so large
    dimensions never materialize adjacency. Block families only take the
    space dimension from it."""
    if space.kind == "hypercube":
        return HypercubeNeighborhood(space.dim, radius or 1)
    if space.kind == "labels":
        return label_band_graph(space.size, radius or 1)
    raise InputError("fitting on enumerated spaces needs an explicit graph")


def _load_train_indices(cfg: ExperimentConfig, space: SampleSpace):
    if isinstance(cfg.train, str):
        file_space, idx, _ = read_samples(cfg.train)
        if file_space.spec_string() != space.spec_string():
            raise InputError(
                f"sample file space {file_space.spec_string()} does not match {cfg.space}"
            )
    elif isinstance(cfg.train, dict):
        src = dict(cfg.train)
        model = load_model(src.pop("model"))
        n = int(src.pop("n"))
        sampler = src.pop("sampler", "exact")
        stream = int(src.pop("stream", 0))
        if src:
            raise InputError(f"unknown synthetic-data keys: {sorted(src)}")
        rng = RngStream(cfg.seed, stream)
        if sampler == "exact":
            idx = exact_sample(normalize(model), n, rng)
        elif sampler == "gibbs":
            idx = gibbs_sample(model, n, rng=rng)
        else:
            raise InputError(f"unknown sampler {sampler!r}")
    else:
        raise InputError("`train` must be a sample file path or a synthetic-source dict")
    if cfg.n_train is not None:
        if cfg.n_train > len(idx):
            raise InputError(f"n_train={cfg.n_train} exceeds available {len(idx)} samples")
        idx = idx[: cfg.n_train]
    return idx


def read_feature_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Comma-separated numeric rows, last column an integer label."""
    features, labels = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                cells = [float(t) for t in line.split(",")]
                label = int(cells[-1])
                if cells[-1] != label:
                    raise ValueError("label column must be an integer")
                if features and len(cells) != len(features[0]) + 1:
                    raise ValueError(f"{len(cells)} columns, expected {len(features[0]) + 1}")
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: malformed row: {exc}") from exc
            features.append(cells[:-1])
            labels.append(label)
    if not features:
        raise InputError(f"{path}: no data rows")
    return np.array(features, dtype=np.float64), np.array(labels, dtype=np.int64)


def cmd_fit(args) -> int:
    with open(args.config) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.config}: bad JSON: {exc}") from exc
    cfg = ExperimentConfig.from_dict(_apply_overrides(doc, args.set or []))
    space = parse_space_spec(cfg.space)
    fit_config = cfg.fit_config()
    spec = parse_score_spec(cfg.score)
    report_lines = [format_record(record="config", **{
        "score": cfg.score, "space": cfg.space, "model": cfg.model,
        "objective": cfg.objective, "seed": cfg.seed,
    })]

    if cfg.model == "conditional":
        if not isinstance(cfg.train, str):
            raise InputError("conditional fits read a feature CSV from `train`")
        x, y = read_feature_csv(cfg.train)
        if cfg.n_train is not None:
            x, y = x[: cfg.n_train], y[: cfg.n_train]
        model0 = ConditionalModel.zeros(space.size, x.shape[1])
        if cfg.objective == "mle":
            result = mle_fit(model0, y, fit_config, features=x)
        else:
            graph = _score_graph(spec, space, cfg.radius)
            family = spec.family(graph)
            result = fit((family, spec.standard_cl), model0, y, fit_config, features=x)
    else:
        indices = _load_train_indices(cfg, space)
        if cfg.model == "boltzmann":
            model0 = BoltzmannModel.zeros(space.dim)
        else:
            model0 = TabularModel.zeros(space)
        if cfg.objective == "mle":
            result = mle_fit(model0, indices, fit_config)
        else:
            if cfg.blocks is not None and spec.kind in ("cl", "mcl") and spec.blocks_text is None:
                spec = ScoreSpec(kind=spec.kind, gamma=spec.gamma, blocks_text=cfg.blocks)
            graph = _score_graph(spec, space, cfg.radius)
            family = spec.family(graph)
            result = fit((family, spec.standard_cl), model0, indices, fit_config)

    fitted = result.parameters
    report_lines += result.report_lines()
    summary = format_record(
        record="fit_summary",
        objective=result.final_objective,
        grad_norm=result.gradient_norm,
        iterations=result.iterations_used,
        converged=result.converged,
        evaluations=result.evaluations,
        gradients=result.gradients,
    )
    report_lines.append(summary)
    print(summary)

    if cfg.test:
        if cfg.model == "conditional":
            xt, yt = read_feature_csv(cfg.test)
            if cfg.n_test is not None:
                xt, yt = xt[: cfg.n_test], yt[: cfg.n_test]
            loss = negative_log_loss(fitted, yt, features=xt)
            err = test_error(fitted, xt, yt)
            line = format_record(record="test_metrics", log_loss=loss, error=err)
        else:
            _, test_idx, _ = read_samples(cfg.test)
            if cfg.n_test is not None:
                test_idx = test_idx[: cfg.n_test]
            loss = negative_log_loss(fitted, test_idx, log_z=exact_log_z(fitted))
            line = format_record(record="test_metrics", log_loss=loss)
        report_lines.append(line)
        print(line)

    if cfg.out_model:
        save_model(fitted, cfg.out_model)
    if cfg.report:
        with open(cfg.report, "w") as fh:
            fh.write("\n".join(report_lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# eval / sample


def cmd_eval(args) -> int:
    model = load_model(args.model)
    if isinstance(model, ConditionalModel):
        x, y = read_feature_csv(args.test)
        loss = negative_log_loss(model, y, features=x)
        err = test_error(model, x, y)
        print(format_record(record="eval", log_loss=loss, error=err))
        return 0
    _, idx, _ = read_samples(args.test)
    if args.logz == "exact":
        log_z = exact_log_z(model)
        print_fields = dict(record="eval", method="exact", log_z=log_z)
    else:
        if not isinstance(model, BoltzmannModel):
            raise InputError("annealed estimates apply to Boltzmann models")
        config = AisConfig(
            num_temperatures=args.ais_temperatures, num_chains=args.ais_chains
        )
        log_z, se = ais_log_z(model, config, RngStream(args.seed))
        print_fields = dict(record="eval", method="ais", log_z=log_z, log_z_se=se)
    loss = negative_log_loss(model, idx, log_z=log_z)
    print_fields["log_loss"] = loss
    print(format_record(**print_fields))
    return 0


def cmd_sample(args) -> int:
    model = load_model(args.model)
    rng = RngStream(args.seed, args.stream)
    if args.sampler == "exact":
        idx = exact_sample(normalize(model), args.n, rng)
        space = model.space
    else:
        if not isinstance(model, BoltzmannModel):
            raise InputError("the Gibbs sampler applies to Boltzmann models")
        idx = gibbs_sample(model, args.n, burn_in=args.burn_in, thinning=args.thinning, rng=rng)
        space = model.space
    write_samples(args.out, space, idx, args.seed)
    print(format_record(record="sample", n=len(idx), out=args.out, seed=args.seed))
    return 0


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    registry = standard_check_registry()
    if args.names:
        unknown = [n for n in args.names if n not in registry]
        if unknown:
            raise InputError(f"unknown check names: {unknown}")
        names = args.names
    elif args.all:
        names = sorted(registry)
    else:
        names = sorted(set(registry) - DEMONSTRATION_CHECKS)
    expected_fail = set(args.expect_fail or [])
    unknown_expected = expected_fail - set(registry)
    if unknown_expected:
        raise InputError(f"unknown check names in --expect-fail: {sorted(unknown_expected)}")
    rng = RngStream(args.seed)
    failures = []
    for stream_id, name in enumerate(names):
        report = registry[name](args.trials, rng.stream(stream_id))
        print(report.record_line(name=name))
        if report.verdict == "fail":
            failures.append(name)
    unexpected = [n for n in failures if n not in expected_fail]
    print(format_record(
        record="check_suite", checks=len(names), failures=len(failures),
        unexpected_failures=len(unexpected),
    ))
    return 1 if unexpected else 0


# ---------------------------------------------------------------------------
# classify / ingest


def cmd_classify(args) -> int:
    model = load_model(args.model)
    if not isinstance(model, ConditionalModel):
        raise InputError("classification needs a conditional model")
    x, y = read_feature_csv(args.data)
    predictions = classify_batch(model, x)
    lines = [str(int(p)) for p in predictions]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    if args.labeled:
        print(format_record(record="classify", n=len(y), error=test_error(model, x, y)))
    return 0


def ingest_optdigits(path, feature_indices, binarize: bool):
    """Read comma-separated digit rows (64 features then a 0..9 label), keep
    the requested feature columns, and optionally binarize: 0 -> -1, else +1."""
    rows, labels = [], []
    feature_indices = list(feature_indices)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                cells = [int(t) for t in line.split(",")]
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: malformed row: {exc}") from exc
            if len(cells) < 2:
                raise InputError(f"{path}:{lineno}: need features and a label")
            label = cells[-1]
            feats = cells[:-1]
            if any(not 0 <= i < len(feats) for i in feature_indices):
                raise InputError(
                    f"{path}:{lineno}: feature index outside 0..{len(feats) - 1}"
                )
            picked = [feats[i] for i in feature_indices]
            if binarize:
                picked = [-1 if v == 0 else 1 for v in picked]
            rows.append(picked)
            labels.append(label)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.array(rows, dtype=np.int64), np.array(labels, dtype=np.int64)


def inject_label_noise(labels, rate: float, rng: RngStream, num_labels: int = 10) -> np.ndarray:
    """Resample exactly floor(rate*n) labels uniformly over 0..num_labels-1."""
    if not 0 <= rate <= 1:
        raise InputError("noise rate must lie in [0,1]")
    labels = np.asarray(labels, dtype=np.int64).copy()
    n_noisy = int(rate * len(labels))
    gen = rng.generator()
    chosen = gen.choice(len(labels), size=n_noisy, replace=False)
    labels[chosen] = gen.integers(0, num_labels, size=n_noisy)
    return labels


def cmd_ingest(args) -> int:
    indices = [int(t) for t in args.features.split(",")] if args.features else list(range(64))
    feats, labels = ingest_optdigits(args.input, indices, args.binarize)
    if args.noise > 0:
        labels = inject_label_noise(labels, args.noise, RngStream(args.seed))
    with open(args.out, "w") as fh:
        for row, label in zip(feats, labels):
            fh.write(",".join(str(int(v)) for v in row) + f",{int(label)}\n")
    print(format_record(
        record="ingest", rows=len(labels), features=len(indices),
        binarize=args.binarize, noise=args.noise, out=args.out,
    ))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localscores",
        description="Local proper scoring rules on discrete sample spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="neighborhood-system diagnostics")
    p.add_argument("--space", required=True, help="hypercube:<D> or labels:<L>")
    p.add_argument("--radius", type=int, help="Hamming/band radius")
    p.add_argument("--blocks", help="block system, e.g. 1,2;3")
    p.add_argument("--potential", help="score kind whose guarantee to diagnose")
    p.add_argument("--y0", help="active subset as comma-separated indices")
    p.add_argument("--export", help="write the edge list to this path")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("fit", help="minimize an empirical score")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a top-level config key (JSON value)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="test metrics for a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--logz", choices=("exact", "ais"), default="exact")
    p.add_argument("--ais-temperatures", type=int, default=1000)
    p.add_argument("--ais-chains", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="draw seeded samples from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sampler", choices=("exact", "gibbs"), default="exact")
    p.add_argument("--burn-in", type=int, default=None, help="sweeps; default 100*D")
    p.add_argument("--thinning", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stream", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("check", help="run oracle checks")
    p.add_argument("names", nargs="*", help="check names (default: standard suite)")
    p.add_argument("--all", action="store_true", help="include demonstration checks")
    p.add_argument("--expect-fail", action="append", metavar="NAME")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="predict labels with a conditional model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="feature CSV (last column label)")
    p.add_argument("--labeled", action="store_true", help="report the error rate")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ingest", help="prepare digit-image CSV data")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--features", help="comma-separated feature column indices")
    p.add_argument("--binarize", action="store_true", help="map 0 to -1, 1..16 to +1")
    p.add_argument("--noise", type=float, default=0.0, help="label noise rate")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        return args.func(args)
    except LocalScoresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
