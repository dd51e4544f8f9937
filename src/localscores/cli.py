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
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, LocalScoresError, checked_count, checked_real, open_text
from .estimation import (
    FitConfig,
    classify_batch,
    fit,
    mle_fit,
    negative_log_loss,
    test_error,
)
from .graphs import (
    BlockNeighborhood,
    HypercubeNeighborhood,
    diagnose,
    is_connected,
    label_band_graph,
    materialize,
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
from .potentials import ScoreSpec, parse_score_spec
from .reports import format_record
from .sampling import AisConfig, RngStream, _ais, exact_sample, gibbs_sample, read_samples, write_samples
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
# neighborhood systems


def _neighborhood_system(space: SampleSpace, spec: ScoreSpec | None, radius,
                         blocks_text: str | None = None, default_radius: int | None = None):
    """The neighborhood system a command's settings name, implicit on
    hypercubes: the block lists of the score spec or of `blocks_text` (never
    both, and never with a radius), else the Hamming ball (hypercubes) or
    label band (label spaces) of `radius`, which falls back to
    `default_radius`. The score's family is `spec.family` of the result."""
    if spec is not None and spec.blocks_text is not None:
        if blocks_text is not None:
            raise InputError(f"blocks {blocks_text!r} given twice: also in the score {spec.text()!r}")
        blocks_text = spec.blocks_text
    if blocks_text is not None:
        if radius is not None:
            raise InputError(f"radius {radius} does not combine with blocks {blocks_text!r}")
        if space.kind != "hypercube":
            raise InputError("block systems need a hypercube space")
        return BlockNeighborhood(parse_blocks(blocks_text, space.dim))
    radius = default_radius if radius is None else radius
    if radius is None:
        raise InputError("give either --radius or block lists (--blocks or the potential's)")
    if space.kind == "hypercube":
        return HypercubeNeighborhood(space.dim, radius)
    if space.kind == "labels":
        return label_band_graph(space.size, radius)
    raise InputError("enumerated spaces need an explicit edge list; use the library API")


# ---------------------------------------------------------------------------
# graph


def _indices(flag: str, text: str, what: str) -> list[int]:
    """The comma-separated integers given to `flag`."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise InputError(f"{flag} takes comma-separated {what} indices, got {text!r}") from exc


def cmd_graph(args) -> int:
    space = parse_space_spec(args.space)
    space.require_enumerable("graph")  # before a radius asks for every mask up to it
    spec = parse_score_spec(args.potential) if args.potential else None
    system = _neighborhood_system(space, spec, args.radius, args.blocks)
    graph = materialize(system)
    active = _indices("--y0", args.y0, "point") if args.y0 else range(space.size)
    if args.export:
        write_edge_list(graph, args.export)
    if spec is not None:
        family = spec.family(system)
        diag = diagnose(graph, active, family.potential_class)
        guaranteed = diag.guaranteed
        rank_ok = None
        if family.kind == "cl" and family.blocks is not None:
            rank_ok = rank_condition(family.blocks)
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
        if args.blocks is not None:
            blocks = system.system
            cover = blocks.covers_all_coordinates()
            print(format_record(
                record="graph_summary", space=space.spec_string(),
                blocks=blocks.spec_string(), block_cover=cover, connected=connected,
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
        for key in ("space", "score"):
            if not isinstance(getattr(cfg, key), str):
                raise InputError(f"`{key}` must be a string, got {getattr(cfg, key)!r}")
        for key in ("test", "out_model", "report"):
            value = getattr(cfg, key)  # an integer path would name a file descriptor
            if value is not None and not isinstance(value, str):
                raise InputError(f"`{key}` must be a string, got {value!r}")
        if not cfg.space:
            raise InputError("config needs a `space`")
        if cfg.model not in ("boltzmann", "tabular", "conditional"):
            raise InputError(f"unknown model kind {cfg.model!r}")
        if cfg.objective not in ("score", "mle"):
            raise InputError(f"unknown objective {cfg.objective!r}")
        unread = [key for key in ("score", "radius") if doc.get(key) is not None]
        if cfg.objective == "mle" and unread:
            raise InputError(f"an mle fit reads no {' or '.join(unread)}")
        if cfg.train is None:
            raise InputError("config needs a `train` data source")
        if isinstance(cfg.train, dict):
            _check_synthetic_source(cfg.train)
        elif not isinstance(cfg.train, str):
            raise InputError("`train` must be a sample file path or a synthetic-source dict")
        if cfg.model == "boltzmann" and not cfg.space.startswith("hypercube"):
            raise InputError("Boltzmann models live on hypercube spaces")
        for key in ("radius", "n_train", "n_test"):
            if getattr(cfg, key) is not None:
                checked_count(f"`{key}`", getattr(cfg, key))
        checked_count("`seed`", cfg.seed, 0)
        return cfg

    def fit_config(self) -> FitConfig:
        if not isinstance(self.fit, dict):
            raise InputError(f"`fit` must be an object of FitConfig fields, got {self.fit!r}")
        unknown = set(self.fit) - set(FitConfig.__dataclass_fields__)
        if unknown:
            raise InputError(f"unknown fit keys: {sorted(unknown)}")
        return FitConfig(**self.fit)


def _check_synthetic_source(src: dict) -> None:
    unknown = set(src) - {"model", "n", "sampler", "stream"}
    if unknown:
        raise InputError(f"unknown synthetic-data keys: {sorted(unknown)}")
    if not isinstance(src.get("model"), str):
        raise InputError(f"`train.model` must be a model file path, got {src.get('model')!r}")
    checked_count("`train.n`", src.get("n"))
    checked_count("`train.stream`", src.get("stream", 0), 0)
    if src.get("sampler", "exact") not in ("exact", "gibbs"):
        raise InputError(f"unknown sampler {src['sampler']!r}")


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


def _samples_on(space: SampleSpace, path) -> np.ndarray:
    """The indices in a sample file, refused unless its header names `space`."""
    file_space, idx, _ = read_samples(path)
    if file_space.spec_string() != space.spec_string():
        raise InputError(f"{path}: sample file space {file_space.spec_string()} does not match "
                         f"{space.spec_string()}")
    return idx


def _load_train(cfg: ExperimentConfig, space: SampleSpace):
    """(data, features) to fit: a feature CSV's labels and rows for
    conditional models, sample indices and None otherwise."""
    features = None
    if cfg.model == "conditional":
        if not isinstance(cfg.train, str):
            raise InputError("conditional fits read a feature CSV from `train`")
        features, data = read_feature_csv(cfg.train)
    elif isinstance(cfg.train, str):
        data = _samples_on(space, cfg.train)
    else:  # a synthetic source, checked by `ExperimentConfig.from_dict`
        src = cfg.train
        model = load_model(src["model"])
        rng = RngStream(cfg.seed, src.get("stream", 0))
        if src.get("sampler", "exact") == "exact":
            data = exact_sample(normalize(model), src["n"], rng)
        else:
            data = gibbs_sample(model, src["n"], rng=rng)
    if cfg.n_train is not None:
        if cfg.n_train > len(data):
            raise InputError(f"n_train={cfg.n_train} exceeds available {len(data)} samples")
        data = data[: cfg.n_train]
        if features is not None:
            features = features[: cfg.n_train]
    return data, features


def read_feature_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Comma-separated numeric rows, last column an integer label."""
    features, labels = [], []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                cells = [float(t) for t in line.split(",")]
                if not all(map(math.isfinite, cells)):
                    raise ValueError("cells must be finite")
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
    with open_text(args.config) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.config}: bad JSON: {exc}") from exc
    cfg = ExperimentConfig.from_dict(_apply_overrides(doc, args.set or []))
    space = parse_space_spec(cfg.space)
    fit_config = cfg.fit_config()
    spec = parse_score_spec(cfg.score)
    scored = {} if cfg.objective == "mle" else {"score": cfg.score}  # mle fits read no score
    report_lines = [format_record(record="config", **scored, **{
        "space": cfg.space, "model": cfg.model, "objective": cfg.objective, "seed": cfg.seed,
    })]

    data, features = _load_train(cfg, space)
    if cfg.model == "conditional":
        model0 = ConditionalModel.zeros(space.size, features.shape[1])
    elif cfg.model == "boltzmann":
        model0 = BoltzmannModel.zeros(space.dim)
    else:
        model0 = TabularModel.zeros(space)
    test = None
    if cfg.test:  # read and checked before the fit, so that a bad test file costs no fit
        test = _test_data(model0, cfg.test, cfg.n_test)
        if not isinstance(model0, ConditionalModel):
            model0.space.require_enumerable("the test log loss's exact log Z")
    if cfg.objective == "mle":
        result = mle_fit(model0, data, fit_config, features=features)
    else:
        family = spec.family(_neighborhood_system(space, spec, cfg.radius, default_radius=1))
        result = fit(family, model0, data, fit_config, features=features)

    fitted = result.parameters
    summary = result.record_line("fit_summary")
    report_lines += result.report_lines() + [summary]
    print(summary)

    if test is not None:
        line = format_record(record="test_metrics", **_test_metrics(fitted, test))
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


def _test_data(model, path, n=None):
    """The first n rows of a test file (all rows for None), checked against
    the model: a conditional model's (features, labels), else sample indices
    on the model's space, whose exact log Z the metrics may need."""
    if isinstance(model, ConditionalModel):
        x, y = read_feature_csv(path)
        try:
            model.feature_rows(x)
            model.space.checked_indices(y, "label")
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc
        return x[:n], y[:n]
    idx = _samples_on(model.space, path)[:n]
    if idx.size == 0:
        raise InputError(f"{path}: no test samples")
    return idx


def _test_metrics(model, test, log_z=None) -> dict:
    """Log loss on `_test_data`, and the error for a conditional model; an
    unconditional model's log Z is exact unless given."""
    if isinstance(model, ConditionalModel):
        x, y = test
        return dict(log_loss=negative_log_loss(model, y, features=x), error=test_error(model, x, y))
    log_z = exact_log_z(model) if log_z is None else log_z
    return dict(log_loss=negative_log_loss(model, test, log_z=log_z))


def cmd_eval(args) -> int:
    model = load_model(args.model)
    test = _test_data(model, args.test)
    if isinstance(model, ConditionalModel):
        fields = {}
    elif args.logz == "exact":
        fields = dict(method="exact", log_z=exact_log_z(model))
    else:
        if not isinstance(model, BoltzmannModel):
            raise InputError("annealed estimates apply to Boltzmann models")
        config = AisConfig(num_temperatures=args.ais_temperatures, num_chains=args.ais_chains)
        log_z, se, ess = _ais(model, config, RngStream(args.seed))
        fields = dict(method="ais", log_z=log_z, log_z_se=se, ais_ess=ess)
    metrics = _test_metrics(model, test, log_z=fields.get("log_z"))
    print(format_record(record="eval", **fields, **metrics))
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
    features, labels = read_feature_csv(path)
    if not np.all(np.isfinite(features) & (features == np.round(features))):
        raise InputError(f"{path}: features must be integers")
    feature_indices = list(feature_indices)
    if any(not 0 <= i < features.shape[1] for i in feature_indices):
        raise InputError(f"{path}: feature index outside 0..{features.shape[1] - 1}")
    picked = features[:, feature_indices].astype(np.int64)
    return (np.where(picked == 0, -1, 1) if binarize else picked), labels


def inject_label_noise(labels, rate: float, rng: RngStream, num_labels: int = 10) -> np.ndarray:
    """Resample exactly floor(rate*n) labels uniformly over 0..num_labels-1."""
    if checked_real("noise rate", rate) > 1:
        raise InputError("noise rate must lie in [0,1]")
    labels = np.asarray(labels, dtype=np.int64).copy()
    n_noisy = int(rate * len(labels))
    gen = rng.generator()
    chosen = gen.choice(len(labels), size=n_noisy, replace=False)
    labels[chosen] = gen.integers(0, num_labels, size=n_noisy)
    return labels


def cmd_ingest(args) -> int:
    indices = _indices("--features", args.features, "feature column") if args.features else list(range(64))
    feats, labels = ingest_optdigits(args.input, indices, args.binarize)
    if args.noise:  # a negative or nan rate is refused, not skipped
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
    p.add_argument("--ais-temperatures", type=int, default=AisConfig.num_temperatures)
    p.add_argument("--ais-chains", type=int, default=AisConfig.num_chains)
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
