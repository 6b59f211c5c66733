"""Radio-unit hourly energy model: a small feed-forward network that outputs
the mean and standard deviation of a Gaussian over the measured energy.

The network is trained by minimizing the Gaussian negative log-likelihood
    l(y, mu, sigma) = log(sigma) + (y - mu)^2 / (2 sigma^2)
with Adam (adaptive-moment gradient descent) over one flat parameter vector,
whose views are the six weight and bias arrays, and early stopping on a
held-out validation split. `nll_loss` and `nll_gradient`, elementwise over
scalars or arrays, are the one definition of the loss and its gradient.
Targets are scaled to [0, 1] by the training maximum so the sigmoid output
layer can cover them; predictions are scaled back and the sigma output is
floored at a small fraction of the target scale.

Inputs are one vector per radio unit and hour: a one-hot over radio types
followed by fixed-width per-carrier slots (TRX count, transmission-mode code,
frequency, bandwidth, max transmit power, DL PRB load, shutdown fraction,
plus reserved zeros). Slots for carriers a radio does not have stay all-zero,
so one network serves radios with any carrier count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .datamodel import (
    MAX_CARRIERS,
    Cell,
    HourlyRows,
    NetworkConfig,
    RadioUnit,
)
from .errors import (
    CorruptModelError,
    EmptyTrainingSetError,
    NonPositiveSigmaError,
    TooManyCarriersError,
    UnknownRadioTypeError,
    UnsupportedVersionError,
)

CARRIER_SLOT_WIDTH = 10
N_HIDDEN_1 = 40
N_HIDDEN_2 = 15
SIGMA_FLOOR_FRACTION = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Loss


def _check_sigma(sigma) -> None:
    if np.any(sigma <= 0):
        raise NonPositiveSigmaError(
            f"sigma must be positive, got {np.min(sigma)}")


def nll_loss(y, mu, sigma):
    """Gaussian negative log-likelihood up to the constant log(sqrt(2 pi)),
    elementwise over scalars or arrays."""
    _check_sigma(sigma)
    return np.log(sigma) + (y - mu) ** 2 / (2.0 * sigma ** 2)


def nll_gradient(y, mu, sigma):
    """Analytic (d l / d mu, d l / d sigma), elementwise over scalars or
    arrays."""
    _check_sigma(sigma)
    dmu = (mu - y) / sigma ** 2
    dsigma = 1.0 / sigma - (y - mu) ** 2 / sigma ** 3
    return dmu, dsigma


# ---------------------------------------------------------------------------
# Feature encoding


def carrier_order(cells: Sequence[Cell]) -> list[Cell]:
    """Deterministic slot assignment: descending bandwidth, then cell id."""
    return sorted(cells, key=lambda c: (-c.bandwidth_mhz, c.id))


@dataclass(frozen=True)
class RadioHourSample:
    """One training/inference row: a radio unit with its per-carrier hourly
    DL PRB loads (in [0, 1]) and shutdown fractions (t_cs / 60)."""

    radio: RadioUnit
    cells: tuple[Cell, ...]
    dl_loads: Mapping[str, float]
    cs_fractions: Mapping[str, float]
    energy_wh: float = 0.0


@dataclass(frozen=True)
class EnergyFeatureSchema:
    """Categorical vocabularies plus per-position min/max scaling statistics."""

    radio_types: tuple[str, ...]
    tx_modes: tuple[str, ...]
    max_carriers: int
    lo: np.ndarray
    hi: np.ndarray

    @property
    def n_features(self) -> int:
        return len(self.radio_types) + CARRIER_SLOT_WIDTH * self.max_carriers


def _raw_block(radio: RadioUnit, cells: Sequence[Cell],
               dl_loads: Mapping[str, float], cs_fractions: Mapping[str, float],
               tx_modes: Sequence[str], max_carriers: int) -> np.ndarray:
    if len(cells) > max_carriers:
        raise TooManyCarriersError(
            f"radio {radio.id!r} has {len(cells)} carriers, schema allows "
            f"{max_carriers}")
    try:
        # 0 marks an absent carrier, so real modes are coded from 1
        mode_code = tx_modes.index(radio.carrier_tx_mode) + 1.0
    except ValueError:
        raise UnknownRadioTypeError(
            f"carrier transmission mode {radio.carrier_tx_mode!r} not seen "
            "at training")
    block = np.zeros(CARRIER_SLOT_WIDTH * max_carriers)
    for k, cell in enumerate(carrier_order(cells)):
        base = CARRIER_SLOT_WIDTH * k
        block[base + 0] = radio.n_trx
        block[base + 1] = mode_code
        block[base + 2] = cell.frequency_mhz
        block[base + 3] = cell.bandwidth_mhz
        block[base + 4] = cell.max_tx_power_dbm
        block[base + 5] = dl_loads.get(cell.id, 0.0)
        block[base + 6] = cs_fractions.get(cell.id, 0.0)
    return block


def fit_feature_schema(samples: Sequence[RadioHourSample],
                       max_carriers: int = MAX_CARRIERS) -> EnergyFeatureSchema:
    """Record categorical vocabularies and min/max statistics from training rows."""
    if not samples:
        raise EmptyTrainingSetError("no samples to fit a feature schema")
    radio_types = tuple(sorted({s.radio.radio_type for s in samples}))
    tx_modes = tuple(sorted({s.radio.carrier_tx_mode for s in samples}))
    blocks = np.stack([
        _raw_block(s.radio, s.cells, s.dl_loads, s.cs_fractions,
                   tx_modes, max_carriers)
        for s in samples])
    return EnergyFeatureSchema(radio_types=radio_types, tx_modes=tx_modes,
                               max_carriers=max_carriers,
                               lo=blocks.min(axis=0), hi=blocks.max(axis=0))


def encode_features(schema: EnergyFeatureSchema, radio: RadioUnit,
                    cells: Sequence[Cell], dl_loads: Mapping[str, float],
                    cs_fractions: Mapping[str, float]) -> np.ndarray:
    """One-hot radio type + min-max scaled carrier slots, absent slots zero."""
    if radio.radio_type not in schema.radio_types:
        raise UnknownRadioTypeError(
            f"radio type {radio.radio_type!r} not seen at training")
    onehot = np.zeros(len(schema.radio_types))
    onehot[schema.radio_types.index(radio.radio_type)] = 1.0
    block = _raw_block(radio, cells, dl_loads, cs_fractions,
                       schema.tx_modes, schema.max_carriers)
    span = schema.hi - schema.lo
    scaled = np.where(span > 0, (block - schema.lo) / np.where(span > 0, span, 1.0),
                      0.0)
    return np.concatenate([onehot, scaled])


def build_energy_samples(cfg: NetworkConfig, kpis: HourlyRows,
                         energies: HourlyRows) -> list[RadioHourSample]:
    """Join KPI and energy rows into per-(radio, day, hour) training rows.

    Rows whose radio misses a cell KPI for that hour are dropped; of KPI
    rows with the same cell, day and hour, the last is used.
    """
    kpi_row = dict(zip(zip(kpis.ids, kpis.day.tolist(), kpis.hour.tolist()),
                       range(len(kpis))))
    dl_prbs = kpis.column("dl_prbs_used").tolist()
    cs_minutes = kpis.column("cs_minutes").tolist()
    radios = {r.id: r for r in cfg.radio_units}
    samples = []
    for radio_id, day, hour, energy_wh in zip(
            energies.ids, energies.day.tolist(), energies.hour.tolist(),
            energies.column("energy_wh").tolist()):
        radio = radios[radio_id]
        cells = tuple(cfg.cell(cid) for cid in radio.cell_ids)
        rows = [kpi_row.get((cell.id, day, hour)) for cell in cells]
        if None not in rows:
            samples.append(RadioHourSample(
                radio, cells,
                {c.id: dl_prbs[k] / c.n_dl_prb for c, k in zip(cells, rows)},
                {c.id: cs_minutes[k] / 60.0 for c, k in zip(cells, rows)},
                energy_wh))
    return samples


# ---------------------------------------------------------------------------
# Network


@dataclass
class EnergyModel:
    """Trained network weights plus everything needed to reuse them."""

    weights: list[np.ndarray]
    y_max: float
    sigma_floor_fraction: float = SIGMA_FLOOR_FRACTION
    schema: EnergyFeatureSchema | None = None
    history: list[tuple[int, float]] = field(default_factory=list)


@dataclass(frozen=True)
class EnergyHyper:
    learning_rate: float = 1e-3
    max_epochs: int = 2000
    patience: int = 200
    batch_size: int = 128
    val_fraction: float = 0.2
    seed: int = 0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _forward(weights, X, floor):
    w1, b1, w2, b2, w3, b3 = weights
    z1 = X @ w1 + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ w2 + b2
    h2 = np.maximum(z2, 0.0)
    z3 = h2 @ w3 + b3
    s = _sigmoid(z3)
    mu = s[:, 0]
    sigma = s[:, 1] + floor
    return mu, sigma, (X, h1, h2, s)


def _gradient(weights, X, y, floor) -> np.ndarray:
    """The flat gradient of the mean NLL over the rows of X, in the layout
    of `_init_weights`' parameter vector."""
    w2, w3 = weights[2], weights[4]
    mu, sigma, (X0, h1, h2, s) = _forward(weights, X, floor)
    dz3 = np.stack(nll_gradient(y, mu, sigma), axis=1) / len(y) * s * (1.0 - s)
    dz2 = (dz3 @ w3.T) * (h2 > 0)
    dz1 = (dz2 @ w2.T) * (h1 > 0)
    return np.concatenate([
        (X0.T @ dz1).ravel(), dz1.sum(axis=0), (h1.T @ dz2).ravel(),
        dz2.sum(axis=0), (h2.T @ dz3).ravel(), dz3.sum(axis=0)])


def _layer_shapes(n_in: int) -> list[tuple[int, ...]]:
    """(w1, b1, w2, b2, w3, b3) shapes of the network on n_in inputs."""
    return [(n_in, N_HIDDEN_1), (N_HIDDEN_1,), (N_HIDDEN_1, N_HIDDEN_2),
            (N_HIDDEN_2,), (N_HIDDEN_2, 2), (2,)]


def _layers(theta: np.ndarray, n_in: int) -> list[np.ndarray]:
    """The (w1, b1, w2, b2, w3, b3) views of the parameter vector theta."""
    layers, start = [], 0
    for shape in _layer_shapes(n_in):
        size = math.prod(shape)
        layers.append(theta[start:start + size].reshape(shape))
        start += size
    return layers


def _init_weights(n_in: int, rng: np.random.Generator) -> np.ndarray:
    """The parameter vector: He-normal weight matrices, in layer order, and
    zero biases."""
    theta = np.zeros(sum(math.prod(shape) for shape in _layer_shapes(n_in)))
    for w in _layers(theta, n_in):
        if w.ndim == 2:
            w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[0]), size=w.shape)
    return theta


def train_energy_model(samples, hyper: EnergyHyper = EnergyHyper(),
                       schema: EnergyFeatureSchema | None = None) -> EnergyModel:
    """Fit the network on (feature vector, energy Wh) pairs.

    An internal random 80/20 train/validation split drives early stopping:
    training halts after `patience` epochs without validation improvement and
    the best-validation weights are kept. The chronological train/test split
    is the caller's job.
    """
    pairs = list(samples)
    if len(pairs) < 2:
        raise EmptyTrainingSetError("need at least two samples")
    X = np.stack([np.asarray(p[0], dtype=float) for p in pairs])
    y = np.array([float(p[1]) for p in pairs])
    y_max = float(y.max())
    if y_max <= 0:
        y_max = 1.0
    y_n = y / y_max
    floor = SIGMA_FLOOR_FRACTION

    rng = np.random.default_rng(hyper.seed)
    order = rng.permutation(len(y_n))
    n_val = max(1, int(round(hyper.val_fraction * len(y_n))))
    val_idx = order[:n_val]
    train_idx = order[n_val:]
    if len(train_idx) == 0:
        train_idx = val_idx
    X_tr, y_tr = X[train_idx], y_n[train_idx]
    X_val, y_val = X[val_idx], y_n[val_idx]

    n_in = X.shape[1]
    theta = _init_weights(n_in, rng)
    weights = _layers(theta, n_in)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    t = 0
    best = [math.inf, 0, theta.copy()]
    history: list[tuple[int, float]] = []
    n_tr = len(y_tr)
    for epoch in range(1, hyper.max_epochs + 1):
        perm = rng.permutation(n_tr)
        for start in range(0, n_tr, hyper.batch_size):
            batch = perm[start:start + hyper.batch_size]
            g = _gradient(weights, X_tr[batch], y_tr[batch], floor)
            t += 1
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            theta -= hyper.learning_rate * (m / (1.0 - ADAM_BETA1 ** t)) / (
                np.sqrt(v / (1.0 - ADAM_BETA2 ** t)) + ADAM_EPS)
        mu, sigma, _ = _forward(weights, X_val, floor)
        val_loss = float(np.mean(nll_loss(y_val, mu, sigma)))
        if val_loss < best[0]:
            best = [val_loss, epoch, theta.copy()]
            history.append((epoch, val_loss))
        elif epoch - best[1] >= hyper.patience:
            break
    return EnergyModel(weights=_layers(best[2], n_in), y_max=y_max,
                       sigma_floor_fraction=floor, schema=schema,
                       history=history)


def predict_energy(model: EnergyModel, features: np.ndarray,
                   ) -> tuple[float, float]:
    """Predicted (mu, sigma) in Wh; mu >= 0 and sigma >= floor * y_max.

    A (1 - alpha) confidence interval is mu +/- z_(alpha/2) * sigma.
    """
    X = np.asarray(features, dtype=float).reshape(1, -1)
    mu, sigma, _ = _forward(model.weights, X, model.sigma_floor_fraction)
    return float(mu[0] * model.y_max), float(sigma[0] * model.y_max)


def fit_radio_energy_model(cfg: NetworkConfig, kpis: HourlyRows,
                           energies: HourlyRows,
                           hyper: EnergyHyper = EnergyHyper()) -> EnergyModel:
    """End-to-end fit from parsed datasets: schema, encoding, training."""
    rows = build_energy_samples(cfg, kpis, energies)
    if not rows:
        raise EmptyTrainingSetError("no joinable radio energy rows")
    schema = fit_feature_schema(rows)
    pairs = [(encode_features(schema, r.radio, r.cells, r.dl_loads,
                              r.cs_fractions), r.energy_wh) for r in rows]
    return train_energy_model(pairs, hyper, schema=schema)


# ---------------------------------------------------------------------------
# Checkpoint file


def save_energy_model(path, model: EnergyModel) -> None:
    if model.schema is None:
        raise ValueError("cannot save a model without a feature schema")
    payload = {
        "version": _SCHEMA_VERSION,
        "layer_shapes": [list(w.shape) for w in model.weights],
        "weights": [w.tolist() for w in model.weights],
        "y_max": model.y_max,
        "sigma_floor_fraction": model.sigma_floor_fraction,
        "schema": {
            "radio_types": list(model.schema.radio_types),
            "tx_modes": list(model.schema.tx_modes),
            "max_carriers": model.schema.max_carriers,
            "lo": model.schema.lo.tolist(),
            "hi": model.schema.hi.tolist(),
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_energy_model(path) -> EnergyModel:
    """The model `save_energy_model` wrote. A checkpoint of another version
    raises UnsupportedVersionError, a damaged one CorruptModelError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        version = payload.get("version")
    except (ValueError, AttributeError) as exc:
        raise CorruptModelError(f"{path}: not an energy model ({exc})")
    if version != _SCHEMA_VERSION:
        raise UnsupportedVersionError(
            f"{path}: unsupported checkpoint version {version}")
    try:
        return _model_from_payload(payload)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptModelError(f"{path}: corrupt energy model ({exc!r}); "
                                "retrain the models")


def _model_from_payload(payload) -> EnergyModel:
    """The checkpoint's model; ValueError unless its weights have the shapes
    its `layer_shapes` and its schema imply and every number is finite."""
    s = payload["schema"]
    schema = EnergyFeatureSchema(
        radio_types=tuple(s["radio_types"]), tx_modes=tuple(s["tx_modes"]),
        max_carriers=s["max_carriers"], lo=np.array(s["lo"], dtype=float),
        hi=np.array(s["hi"], dtype=float))
    weights = [np.array(w, dtype=float) for w in payload["weights"]]
    shapes = [w.shape for w in weights]
    if shapes != [tuple(x) for x in payload["layer_shapes"]] \
            or shapes != _layer_shapes(schema.n_features):
        raise ValueError(f"weight shapes {shapes} do not fit the schema")
    if not schema.lo.shape == schema.hi.shape == (
            CARRIER_SLOT_WIDTH * schema.max_carriers,):
        raise ValueError("scaling statistics do not fit the schema")
    y_max = float(payload["y_max"])
    floor = float(payload["sigma_floor_fraction"])
    if not all(np.isfinite(a).all() for a in
               (*weights, schema.lo, schema.hi, y_max, floor)):
        raise ValueError("a weight or scaling number is not finite")
    return EnergyModel(weights=weights, y_max=y_max,
                       sigma_floor_fraction=floor, schema=schema)
