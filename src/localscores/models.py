"""Parameterized unnormalized models: log f and its parameter gradient.

- `BoltzmannModel`: fully visible Boltzmann machine on {-1,+1}^D,
  log f(y) = y'Wy with W symmetric and zero-diagonal. Since y_i^2 = 1 a
  diagonal entry only shifts log f by a constant, which homogeneous scores
  ignore, so W is stored as its strict upper triangle (D(D-1)/2 parameters).
- `ConditionalModel`: per-label weight vectors, log f(y|x) = theta_y . x.
  Deliberately overparameterized (no gauge fixed by default).
- `TabularModel`: one free log value per point; the saturated model used by
  oracle-side tests.

Models are immutable; fitting produces new parameter snapshots. Every model
offers the same three members, which is all an estimator needs of it:

- `params`: its parameters as a flat float64 copy;
- `with_params(x)`: a new model of the same shape with flat parameters x;
- `bind(points, features=None)`: a `Bound` map at distinct points, with
  `logs(x)`, log f at the points under parameters x, and its adjoint
  `pullback(g)`, the parameter gradient of g . logs. log f is linear in the
  parameters of all three models, so the pullback does not depend on x.

A conditional model's points are row * L + label: row i of `features`
holds the label values theta @ x_i, and only conditional models take
features. A Boltzmann model binds its pair-feature matrix, kept C-ordered:
its layout sets the summation order of the BLAS products over it, and so
the last bits of every fit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import logsumexp

from .errors import InputError
from .potentials import Probability
from .spaces import SampleSpace, indices_to_signs, parse_space_spec, signs_to_index


def _freeze(arr, dtype=np.float64) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=dtype)
    arr.flags.writeable = False
    return arr


class Bound(NamedTuple):
    """A model bound at points: `logs(x)` is log f there under the flat
    parameters x, and `pullback(g)` its adjoint."""

    logs: Callable[[np.ndarray], np.ndarray]
    pullback: Callable[[np.ndarray], np.ndarray]


def _joint(features) -> None:
    if features is not None:
        raise InputError("only conditional models take features")


@dataclass(frozen=True)
class BoltzmannModel:
    dim: int
    upper: np.ndarray  # strict upper triangle of W, row-major: (0,1),(0,2),...,(D-2,D-1)

    def __post_init__(self):
        n = self.dim * (self.dim - 1) // 2
        upper = np.asarray(self.upper, dtype=np.float64)
        if upper.shape != (n,):
            raise InputError(f"expected {n} upper-triangle entries, got {upper.shape}")
        if not np.all(np.isfinite(upper)):
            raise InputError("parameters must be finite")
        object.__setattr__(self, "upper", _freeze(upper))

    @staticmethod
    def zeros(dim: int) -> "BoltzmannModel":
        return BoltzmannModel(dim=dim, upper=np.zeros(dim * (dim - 1) // 2))

    @staticmethod
    def from_matrix(w) -> "BoltzmannModel":
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InputError("W must be square")
        if not np.allclose(w, w.T, atol=0, rtol=0):
            raise InputError("W must be symmetric")
        if np.any(np.diag(w) != 0):
            raise InputError("W must have a zero diagonal")
        return BoltzmannModel(dim=w.shape[0], upper=w[np.triu_indices(w.shape[0], 1)])

    @cached_property
    def matrix(self) -> np.ndarray:
        """The symmetric zero-diagonal W (read-only, built once per model)."""
        rows, cols = np.triu_indices(self.dim, 1)
        w = np.zeros((self.dim, self.dim))
        w[rows, cols] = w[cols, rows] = self.upper
        return _freeze(w)

    @property
    def space(self) -> SampleSpace:
        return SampleSpace.hypercube(self.dim)

    @property
    def params(self) -> np.ndarray:
        return self.upper.copy()

    def with_params(self, x) -> "BoltzmannModel":
        return BoltzmannModel(dim=self.dim, upper=x)

    def bind(self, points, features=None) -> Bound:
        _joint(features)
        f = self.pair_features(points)
        return Bound(lambda x: f @ x, lambda g: f.T @ g)

    def pair_features(self, indices) -> np.ndarray:
        """Feature rows 2*y_i*y_j for states given by index; log f = F @ upper."""
        signs = indices_to_signs(indices, self.dim).astype(np.int8)
        rows, cols = np.triu_indices(self.dim, 1)
        # int8 sign products are exact and leave one float matrix to allocate;
        # it is kept C-ordered, because its layout sets the summation order
        # of the BLAS products over it and so the last bits of every fit
        return 2.0 * np.multiply(signs[:, rows], signs[:, cols], order="C")

    def log_f_batch(self, indices) -> np.ndarray:
        """y'Wy per state, from the (n, D) sign matrix: no pair features."""
        signs = indices_to_signs(indices, self.dim).astype(np.float64)
        return np.sum((signs @ self.matrix) * signs, axis=1)


@dataclass(frozen=True)
class ConditionalModel:
    num_labels: int
    feature_dim: int
    theta: np.ndarray  # (L, d)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.shape != (self.num_labels, self.feature_dim):
            raise InputError(
                f"theta must be ({self.num_labels},{self.feature_dim}), got {theta.shape}"
            )
        if not np.all(np.isfinite(theta)):
            raise InputError("parameters must be finite")
        object.__setattr__(self, "theta", _freeze(theta))

    @staticmethod
    def zeros(num_labels: int, feature_dim: int) -> "ConditionalModel":
        return ConditionalModel(num_labels, feature_dim, np.zeros((num_labels, feature_dim)))

    @property
    def space(self) -> SampleSpace:
        return SampleSpace.label_range(self.num_labels)

    @property
    def params(self) -> np.ndarray:
        return self.theta.flatten()

    def with_params(self, x) -> "ConditionalModel":
        return ConditionalModel(self.num_labels, self.feature_dim, np.reshape(x, self.theta.shape))

    def feature_rows(self, features, count: int | None = None) -> np.ndarray:
        """A feature matrix, checked against the model and, when given, the
        number of labels it belongs to."""
        if features is None:
            raise InputError("conditional models need features")
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.feature_dim:
            raise InputError("feature dimension does not match the model")
        if count is not None and x.shape[0] != count:
            raise InputError("features and labels must align")
        return x

    def bind(self, points, features=None) -> Bound:
        x_rows = self.feature_rows(features)
        rows, labels = np.divmod(points, self.num_labels)
        shape = self.theta.shape

        def pullback(g):
            per_label = np.zeros((x_rows.shape[0], self.num_labels))
            per_label[rows, labels] = g  # bound points are distinct
            return (per_label.T @ x_rows).ravel()

        return Bound(lambda x: (x_rows @ x.reshape(shape).T)[rows, labels], pullback)

    def log_f_labels(self, x) -> np.ndarray:
        """log f(. | x): one value per label."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.feature_dim,):
            raise InputError(f"feature vector must have length {self.feature_dim}")
        return self.theta @ x

    def log_z(self, x) -> float:
        return float(logsumexp(self.log_f_labels(x)))


@dataclass(frozen=True)
class TabularModel:
    space: SampleSpace
    eta: np.ndarray  # log f per point

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=np.float64)
        if eta.shape != (self.space.size,):
            raise InputError(f"eta must have length {self.space.size}")
        if not np.all(np.isfinite(eta)):
            raise InputError("parameters must be finite")
        object.__setattr__(self, "eta", _freeze(eta))

    @staticmethod
    def zeros(space: SampleSpace) -> "TabularModel":
        return TabularModel(space=space, eta=np.zeros(space.size))

    @property
    def params(self) -> np.ndarray:
        return self.eta.copy()

    def with_params(self, x) -> "TabularModel":
        return TabularModel(space=self.space, eta=x)

    def bind(self, points, features=None) -> Bound:
        _joint(features)

        def pullback(g):
            out = np.zeros(self.space.size)
            out[points] = g  # bound points are distinct
            return out

        return Bound(lambda x: x[points], pullback)

    def log_f_batch(self, indices) -> np.ndarray:
        return self.eta[np.asarray(indices, dtype=np.int64)]


def _bind_point(model, y, x) -> Bound:
    """The model bound at one point, given by index or, on a hypercube, as a
    sign vector; a conditional model also needs the point's features x."""
    space = model.space
    if np.ndim(y) != 0:
        if space.kind != "hypercube" or np.shape(y) != (space.dim,):
            raise InputError(f"point {y!r} is neither an index nor a sign vector of the space")
        y = signs_to_index(np.asarray(y).tolist())
    point = space.checked_indices(y, "point")
    return model.bind(point, None if x is None else np.asarray(x, dtype=np.float64)[np.newaxis])


def log_f(model, y, x=None) -> float:
    """Log unnormalized value at a point (hypercube points may be given as
    sign vectors). Conditional models need the feature vector x."""
    return float(_bind_point(model, y, x).logs(model.params)[0])


def grad_log_f(model, y, x=None):
    """Parameter gradient of log f at a point: flat, or one row per label
    for a conditional model (given its features x)."""
    grad = _bind_point(model, y, x).pullback(np.ones(1))
    return grad if x is None else grad.reshape(model.space.size, -1)


def _all_log_f(model) -> np.ndarray:
    space = model.space
    space.require_enumerable("normalization")
    return model.log_f_batch(np.arange(space.size))


def exact_log_z(model) -> float:
    """log sum_y f(y), computed stably over the enumerated space."""
    return float(logsumexp(_all_log_f(model)))


def normalize(model) -> Probability:
    """The normalized probability f / Z over the enumerated space."""
    logs = _all_log_f(model)
    return Probability(weights=np.exp(logs - logsumexp(logs)))


# ---------------------------------------------------------------------------
# persistence


def model_to_dict(model) -> dict:
    if isinstance(model, BoltzmannModel):
        return {"kind": "boltzmann", "D": model.dim, "upper": model.upper.tolist()}
    if isinstance(model, ConditionalModel):
        return {
            "kind": "conditional",
            "L": model.num_labels,
            "d": model.feature_dim,
            "theta": model.theta.tolist(),
        }
    if isinstance(model, TabularModel):
        return {
            "kind": "tabular",
            "space": model.space.spec_string(),
            "eta": model.eta.tolist(),
        }
    raise InputError(f"unknown model type {type(model).__name__}")


def model_from_dict(doc: dict):
    kind = doc.get("kind")
    if kind == "boltzmann":
        return BoltzmannModel(dim=int(doc["D"]), upper=np.array(doc["upper"]))
    if kind == "conditional":
        return ConditionalModel(
            num_labels=int(doc["L"]),
            feature_dim=int(doc["d"]),
            theta=np.array(doc["theta"]),
        )
    if kind == "tabular":
        return TabularModel(space=parse_space_spec(doc["space"]), eta=np.array(doc["eta"]))
    raise InputError(f"unknown model kind {kind!r}")


def save_model(model, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not a model file: {exc}") from exc
    return model_from_dict(doc)
