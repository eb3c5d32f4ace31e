"""Run configuration: JSON schema, validation, and builders.

A run configuration aggregates everything one experiment needs: the model,
where the data comes from (a CSV file or a generation spec), the loss, the
penalties, the optimizer options, and the initialization.  All randomness
flows from a single top-level seed; sub-seeds (data noise, initialization
perturbation) can be pinned explicitly but default to values derived from
it.  Parsing is strict: unknown keys and out-of-range values raise
:class:`ConfigError` with the offending field path, and
``RunConfig.from_dict(cfg.to_dict()) == cfg`` holds for every valid
configuration.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteValue
from .gradient import LossSpec
from .model import Dataset, DynamicalModel, load_dataset
from .optimizer import GRADIENT_METHODS, IdentifyOptions, StoppingCriteria
from .penalties import (LowerBarrier, ParameterBox, PenaltySpec,
                        ReluUpperBound, UpperBarrier)
from .systems import (INTEGRATORS, NoiseSpec, euler_attitude_model,
                      generate_dataset, rotational_energy,
                      rotational_energy_term, scalar_linear_model)

MODEL_KINDS = ("euler_attitude", "scalar_linear")

# the keys each penalty type takes besides "type" and "lambda"
PENALTY_KEYS = {"upper_barrier": ("alpha", "bounds"), "lower_barrier": ("alpha", "bounds"),
                "parameter_box": ("alpha", "lower", "upper"),
                "energy_conservation": ("inertia", "reference"),
                "relu_upper_bound": ("bounds",)}
PENALTY_TYPES = tuple(PENALTY_KEYS)


def _check_keys(mapping: dict, allowed, path: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    # an integer beyond the float range counts as infinite
    number = np.inf if abs(value) > sys.float_info.max else float(value)
    if not np.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {number!r}")
    return number


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_float_list(value, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers, got {value!r}")
    return [_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]


@dataclass
class ModelConfig:
    kind: str = "euler_attitude"
    dt: float = 0.1
    integrator: str = "forward_euler"

    @classmethod
    def from_dict(cls, data: dict, path: str = "model") -> "ModelConfig":
        _check_keys(data, ("kind", "dt", "integrator"), path)
        cfg = cls(kind=data.get("kind", "euler_attitude"),
                  dt=_as_float(data.get("dt", 0.1), f"{path}.dt"),
                  integrator=data.get("integrator", "forward_euler"))
        if cfg.kind not in MODEL_KINDS:
            raise ConfigError(f"{path}.kind: must be one of {MODEL_KINDS}, got {cfg.kind!r}")
        if cfg.dt <= 0:
            raise ConfigError(f"{path}.dt: must be positive, got {cfg.dt}")
        if cfg.integrator not in INTEGRATORS:
            raise ConfigError(
                f"{path}.integrator: must be one of {INTEGRATORS}, got {cfg.integrator!r}")
        return cfg


@dataclass
class NoiseConfig:
    torque_mean: float = 0.0
    torque_std: float = 0.0
    obs_std: float = 0.0
    seed: Optional[int] = None

    @classmethod
    def from_dict(cls, data: dict, path: str) -> "NoiseConfig":
        _check_keys(data, ("torque_mean", "torque_std", "obs_std", "seed"), path)
        cfg = cls(
            torque_mean=_as_float(data.get("torque_mean", 0.0), f"{path}.torque_mean"),
            torque_std=_as_float(data.get("torque_std", 0.0), f"{path}.torque_std"),
            obs_std=_as_float(data.get("obs_std", 0.0), f"{path}.obs_std"),
            seed=None if data.get("seed") is None
            else _as_int(data["seed"], f"{path}.seed"))
        if cfg.torque_std < 0 or cfg.obs_std < 0:
            raise ConfigError(f"{path}: standard deviations must be nonnegative")
        return cfg


@dataclass
class GenerateConfig:
    theta_true: list
    x0_true: list
    horizon: int
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    @classmethod
    def from_dict(cls, data: dict, path: str) -> "GenerateConfig":
        _check_keys(data, ("theta_true", "x0_true", "horizon", "noise"), path)
        for key in ("theta_true", "x0_true", "horizon"):
            if key not in data:
                raise ConfigError(f"{path}.{key}: required")
        horizon = _as_int(data["horizon"], f"{path}.horizon")
        if horizon < 2:
            raise ConfigError(f"{path}.horizon: must be >= 2, got {horizon}")
        return cls(theta_true=_as_float_list(data["theta_true"], f"{path}.theta_true"),
                   x0_true=_as_float_list(data["x0_true"], f"{path}.x0_true"),
                   horizon=horizon,
                   noise=NoiseConfig.from_dict(data.get("noise", {}), f"{path}.noise"))


@dataclass
class DatasetConfig:
    path: Optional[str] = None
    generate: Optional[GenerateConfig] = None
    known_inputs: bool = True
    nominal_input: Optional[Union[float, list]] = None

    @classmethod
    def from_dict(cls, data: dict, path: str = "dataset") -> "DatasetConfig":
        _check_keys(data, ("path", "generate", "known_inputs", "nominal_input"), path)
        file_path = data.get("path")
        generate = data.get("generate")
        if (file_path is None) == (generate is None):
            raise ConfigError(f"{path}: give exactly one of 'path' or 'generate'")
        known_inputs = data.get("known_inputs", True)
        if not isinstance(known_inputs, bool):
            raise ConfigError(f"{path}.known_inputs: expected a boolean")
        nominal = data.get("nominal_input")
        if nominal is not None:
            if isinstance(nominal, (list, tuple)):
                nominal = _as_float_list(nominal, f"{path}.nominal_input")
            else:
                nominal = _as_float(nominal, f"{path}.nominal_input")
        return cls(path=file_path,
                   generate=None if generate is None
                   else GenerateConfig.from_dict(generate, f"{path}.generate"),
                   known_inputs=known_inputs, nominal_input=nominal)


@dataclass
class LossConfig:
    q: Union[float, list] = 1.0
    horizon: Optional[int] = None

    @classmethod
    def from_dict(cls, data: dict, path: str = "loss") -> "LossConfig":
        _check_keys(data, ("q", "horizon"), path)
        q = data.get("q", 1.0)
        if isinstance(q, (list, tuple)):
            q = [_as_float_list(row, f"{path}.q[{i}]") for i, row in enumerate(q)]
            if len({len(row) for row in q}) > 1:
                raise ConfigError(f"{path}.q: rows must have equal lengths")
        else:
            q = _as_float(q, f"{path}.q")
            if q < 0:
                raise ConfigError(f"{path}.q: scalar weight must be nonnegative")
        horizon = data.get("horizon")
        if horizon is not None:
            horizon = _as_int(horizon, f"{path}.horizon")
            if horizon < 2:
                raise ConfigError(f"{path}.horizon: must be >= 2, got {horizon}")
        return cls(q=q, horizon=horizon)


@dataclass
class BoxConfig:
    lower: list
    upper: list

    @classmethod
    def from_dict(cls, data: dict, path: str) -> "BoxConfig":
        _check_keys(data, ("lower", "upper"), path)
        if "lower" not in data or "upper" not in data:
            raise ConfigError(f"{path}: both 'lower' and 'upper' are required")
        lower = _as_float_list(data["lower"], f"{path}.lower")
        upper = _as_float_list(data["upper"], f"{path}.upper")
        if len(lower) != len(upper):
            raise ConfigError(f"{path}: bound lengths differ")
        if any(lo > up for lo, up in zip(lower, upper)):
            raise ConfigError(f"{path}: lower bound exceeds upper bound")
        return cls(lower=lower, upper=upper)


@dataclass
class OptimizerConfig:
    lr_theta: float = 1e-3
    lr_x0: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_epochs: int = 1000
    cost_tol: float = 0.0
    grad_tol: float = 0.0
    box: Optional[BoxConfig] = None
    gradient_method: str = "adjoint"
    fd_step: float = 1e-6

    @classmethod
    def from_dict(cls, data: dict, path: str = "optimizer") -> "OptimizerConfig":
        allowed = ("lr_theta", "lr_x0", "beta1", "beta2", "eps", "max_epochs",
                   "cost_tol", "grad_tol", "box", "gradient_method", "fd_step")
        _check_keys(data, allowed, path)
        defaults = cls()
        cfg = cls(
            lr_theta=_as_float(data.get("lr_theta", defaults.lr_theta), f"{path}.lr_theta"),
            lr_x0=_as_float(data.get("lr_x0", defaults.lr_x0), f"{path}.lr_x0"),
            beta1=_as_float(data.get("beta1", defaults.beta1), f"{path}.beta1"),
            beta2=_as_float(data.get("beta2", defaults.beta2), f"{path}.beta2"),
            eps=_as_float(data.get("eps", defaults.eps), f"{path}.eps"),
            max_epochs=_as_int(data.get("max_epochs", defaults.max_epochs),
                               f"{path}.max_epochs"),
            cost_tol=_as_float(data.get("cost_tol", 0.0), f"{path}.cost_tol"),
            grad_tol=_as_float(data.get("grad_tol", 0.0), f"{path}.grad_tol"),
            box=None if data.get("box") is None
            else BoxConfig.from_dict(data["box"], f"{path}.box"),
            gradient_method=data.get("gradient_method", "adjoint"),
            fd_step=_as_float(data.get("fd_step", defaults.fd_step), f"{path}.fd_step"))
        if cfg.max_epochs < 1:
            raise ConfigError(f"{path}.max_epochs: must be >= 1, got {cfg.max_epochs}")
        if not 0 < cfg.beta1 < 1 or not 0 < cfg.beta2 < 1:
            raise ConfigError(f"{path}: beta1 and beta2 must lie in (0, 1)")
        if cfg.lr_theta <= 0 or cfg.lr_x0 <= 0 or cfg.eps <= 0 or cfg.fd_step <= 0:
            raise ConfigError(f"{path}: learning rates, eps, and fd_step must be positive")
        if cfg.cost_tol < 0 or cfg.grad_tol < 0:
            raise ConfigError(f"{path}: tolerances must be nonnegative")
        if cfg.gradient_method not in GRADIENT_METHODS:
            raise ConfigError(
                f"{path}.gradient_method: must be one of {GRADIENT_METHODS}, "
                f"got {cfg.gradient_method!r}")
        return cfg


@dataclass
class InitConfig:
    theta: Optional[list] = None
    x0: Optional[list] = None
    perturb_theta: Optional[float] = None
    perturb_x0: Optional[float] = None
    seed: Optional[int] = None

    @classmethod
    def from_dict(cls, data: dict, path: str = "init") -> "InitConfig":
        _check_keys(data, ("theta", "x0", "perturb_theta", "perturb_x0", "seed"), path)
        explicit = data.get("theta") is not None or data.get("x0") is not None
        perturbed = data.get("perturb_theta") is not None or data.get("perturb_x0") is not None
        if explicit and perturbed:
            raise ConfigError(f"{path}: give explicit values or perturbation fractions, not both")
        if not explicit and not perturbed:
            raise ConfigError(f"{path}: initialization is required")
        if explicit and (data.get("theta") is None or data.get("x0") is None):
            raise ConfigError(f"{path}: explicit initialization needs both 'theta' and 'x0'")
        cfg = cls(
            theta=None if data.get("theta") is None
            else _as_float_list(data["theta"], f"{path}.theta"),
            x0=None if data.get("x0") is None
            else _as_float_list(data["x0"], f"{path}.x0"),
            perturb_theta=None if data.get("perturb_theta") is None
            else _as_float(data["perturb_theta"], f"{path}.perturb_theta"),
            perturb_x0=None if data.get("perturb_x0") is None
            else _as_float(data["perturb_x0"], f"{path}.perturb_x0"),
            seed=None if data.get("seed") is None
            else _as_int(data["seed"], f"{path}.seed"))
        for name in ("perturb_theta", "perturb_x0"):
            value = getattr(cfg, name)
            if value is not None and value < 0:
                raise ConfigError(f"{path}.{name}: must be nonnegative, got {value}")
        return cfg


def _validate_penalty(entry: dict, index: int) -> dict:
    path = f"penalties[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = entry.get("type")
    if kind not in PENALTY_TYPES:
        raise ConfigError(f"{path}.type: must be one of {PENALTY_TYPES}, got {kind!r}")
    keys = PENALTY_KEYS[kind]
    _check_keys(entry, ("type", "lambda") + keys, path)
    weight = _as_float(entry.get("lambda", 1.0), f"{path}.lambda")
    if weight < 0:
        raise ConfigError(f"{path}.lambda: must be nonnegative, got {weight}")
    for key in ("bounds", "inertia"):
        if key in keys:
            if key not in entry:
                raise ConfigError(f"{path}.{key}: required")
            _as_float_list(entry[key], f"{path}.{key}")
    if kind == "parameter_box":
        BoxConfig.from_dict({"lower": entry.get("lower"), "upper": entry.get("upper")}, path)
    if "alpha" in keys and _as_float(entry.get("alpha", 1.0), f"{path}.alpha") <= 0:
        raise ConfigError(f"{path}.alpha: must be positive")
    if entry.get("reference", "first_observation") != "first_observation":
        _as_float(entry["reference"], f"{path}.reference")
    return dict(entry)


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    init: Optional[InitConfig] = None
    penalties: list = field(default_factory=list)
    seed: int = 0
    out_dir: Optional[str] = None

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration root must be an object")
        allowed = ("model", "dataset", "loss", "optimizer", "init",
                   "penalties", "seed", "out_dir")
        _check_keys(data, allowed, "config")
        if "dataset" not in data:
            raise ConfigError("dataset: required")
        penalties = data.get("penalties", [])
        if not isinstance(penalties, list):
            raise ConfigError("penalties: expected a list")
        out_dir = data.get("out_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError(f"out_dir: expected a string, got {out_dir!r}")
        cfg = cls(
            model=ModelConfig.from_dict(data.get("model", {})),
            dataset=DatasetConfig.from_dict(data["dataset"]),
            loss=LossConfig.from_dict(data.get("loss", {})),
            optimizer=OptimizerConfig.from_dict(data.get("optimizer", {})),
            init=None if data.get("init") is None else InitConfig.from_dict(data["init"]),
            penalties=[_validate_penalty(p, i) for i, p in enumerate(penalties)],
            seed=_as_int(data.get("seed", 0), "seed"),
            out_dir=out_dir)
        cfg._check_model_fit()
        return cfg

    def _check_model_fit(self) -> None:
        """Refuse a penalty the model cannot take, or a list whose length does
        not match the model's dimensions, naming its path."""
        dims = build_model(self.model).dims
        lists = [("dataset.nominal_input", self.dataset.nominal_input, dims.n_u)]
        if self.dataset.generate is not None:
            lists += [("dataset.generate.theta_true", self.dataset.generate.theta_true,
                       dims.n_theta),
                      ("dataset.generate.x0_true", self.dataset.generate.x0_true, dims.n_x)]
        if self.optimizer.box is not None:
            lists += [(f"optimizer.box.{key}", getattr(self.optimizer.box, key), dims.n_theta)
                      for key in ("lower", "upper")]
        if self.init is not None:
            lists += [("init.theta", self.init.theta, dims.n_theta),
                      ("init.x0", self.init.x0, dims.n_x)]
        sizes = {"bounds": dims.n_x, "lower": dims.n_theta, "upper": dims.n_theta,
                 "inertia": dims.n_theta}
        for index, entry in enumerate(self.penalties):
            if entry["type"] == "energy_conservation" and self.model.kind != "euler_attitude":
                raise ConfigError(
                    f"penalties[{index}]: energy_conservation requires the attitude model")
            lists += [(f"penalties[{index}].{key}", entry[key], n)
                      for key, n in sizes.items() if key in entry]
        for path, values, n in lists:
            if isinstance(values, (list, tuple)) and len(values) != n:
                raise ConfigError(f"{path}: expected {n} components, got {len(values)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(data)

    def to_json(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")


# ---------------------------------------------------------------------------
# Builders: turn a validated configuration into runtime objects.

def build_model(cfg: ModelConfig) -> DynamicalModel:
    if cfg.kind == "euler_attitude":
        return euler_attitude_model(dt=cfg.dt, integrator=cfg.integrator)
    return scalar_linear_model()


def data_seed(config: RunConfig) -> int:
    generate = config.dataset.generate
    if generate is not None and generate.noise.seed is not None:
        return generate.noise.seed
    return config.seed


def init_seed(config: RunConfig) -> int:
    if config.init is not None and config.init.seed is not None:
        return config.init.seed
    return config.seed + 1


def build_noise(config: RunConfig) -> NoiseSpec:
    generate = config.dataset.generate
    if generate is None:
        raise ConfigError("dataset.generate: required for data generation")
    noise = generate.noise
    return NoiseSpec(torque_mean=noise.torque_mean, torque_std=noise.torque_std,
                     obs_std=noise.obs_std, seed=data_seed(config))


def make_dataset(config: RunConfig, model: DynamicalModel) -> tuple[Dataset, Optional[dict]]:
    """Dataset plus the ground truth when it is known from the configuration.

    Generated data carries its truth; data loaded from a file does not (the
    truth sidecar is never consulted here).
    """
    spec = config.dataset
    if spec.generate is not None:
        generate = spec.generate
        dataset = generate_dataset(model, np.asarray(generate.x0_true),
                                   np.asarray(generate.theta_true),
                                   generate.horizon, build_noise(config),
                                   dt=config.model.dt)
        truth = {"theta_true": list(generate.theta_true),
                 "x0_true": list(generate.x0_true)}
        return dataset, truth
    try:
        dataset, n_x = load_dataset(spec.path)
    except (DimensionMismatch, NonFiniteValue) as exc:
        raise ConfigError(f"dataset.path: {exc}") from exc
    if n_x != model.dims.n_x:
        raise ConfigError(
            f"dataset.path: file has n_x={n_x} but the model expects {model.dims.n_x}")
    return dataset, None


def identification_inputs(config: RunConfig, dataset: Dataset,
                          model: DynamicalModel) -> Dataset:
    """The dataset as the identifier sees it.

    With ``known_inputs`` the recorded inputs are used as-is.  Otherwise the
    realized inputs are withheld and replaced by the nominal (expected)
    input: ``nominal_input`` when given, the generation torque mean when the
    data was generated here, zero for file datasets.
    """
    spec = config.dataset
    if spec.known_inputs:
        return dataset
    if spec.nominal_input is not None:
        nominal = np.broadcast_to(
            np.asarray(spec.nominal_input, dtype=float), (model.dims.n_u,))
    elif spec.generate is not None:
        nominal = np.full(model.dims.n_u, spec.generate.noise.torque_mean)
    else:
        nominal = np.zeros(model.dims.n_u)
    inputs = np.tile(nominal, (len(dataset), 1))
    return Dataset(inputs, dataset.observations.copy(), dataset.dt)


def build_penalty_spec(config: RunConfig, model: DynamicalModel,
                       dataset: Dataset) -> Optional[PenaltySpec]:
    if not config.penalties:
        return None
    terms = []
    for entry in config.penalties:
        kind = entry["type"]
        weight = float(entry.get("lambda", 1.0))
        if kind == "upper_barrier":
            terms.append(UpperBarrier(bounds=np.asarray(entry["bounds"], dtype=float),
                                      alpha=float(entry.get("alpha", 1.0)), weight=weight))
        elif kind == "lower_barrier":
            terms.append(LowerBarrier(bounds=np.asarray(entry["bounds"], dtype=float),
                                      alpha=float(entry.get("alpha", 1.0)), weight=weight))
        elif kind == "parameter_box":
            terms.append(ParameterBox(lower=np.asarray(entry["lower"], dtype=float),
                                      upper=np.asarray(entry["upper"], dtype=float),
                                      alpha=float(entry.get("alpha", 1.0)), weight=weight))
        elif kind == "relu_upper_bound":
            terms.append(ReluUpperBound(bounds=np.asarray(entry["bounds"], dtype=float),
                                        weight=weight))
        elif kind == "energy_conservation":
            inertia = np.asarray(entry["inertia"], dtype=float)
            reference = entry.get("reference", "first_observation")
            if reference == "first_observation":
                reference = rotational_energy(dataset.observations[0], inertia)
            terms.append(rotational_energy_term(inertia, float(reference), weight=weight))
    return PenaltySpec(tuple(terms))


def build_loss(config: RunConfig, model: DynamicalModel, horizon: int,
               penalty: Optional[PenaltySpec]) -> LossSpec:
    q = config.loss.q
    n_z = model.dims.n_z
    if isinstance(q, (int, float)):
        matrix = float(q) * np.eye(n_z)
    else:
        matrix = np.asarray(q, dtype=float)
        if matrix.shape != (n_z, n_z):
            raise ConfigError(
                f"loss.q: expected a {n_z}x{n_z} matrix, got shape {matrix.shape}")
    try:
        return LossSpec(matrix, horizon, penalty)
    except DimensionMismatch as exc:
        raise ConfigError(f"loss: {exc}") from exc


def resolve_horizon(config: RunConfig, dataset: Dataset) -> int:
    horizon = config.loss.horizon
    if horizon is None:
        return len(dataset)
    if horizon > len(dataset):
        raise ConfigError(
            f"loss.horizon: {horizon} exceeds the dataset length {len(dataset)}")
    return horizon


def build_init(config: RunConfig, truth: Optional[dict],
               model: DynamicalModel) -> tuple[np.ndarray, np.ndarray]:
    """Initial (theta, x0) for the identification.

    Perturbed initialization multiplies each true component by
    ``1 + fraction * s`` with s drawn uniformly from [-1, 1] (theta first,
    then x0, from one stream seeded by the init seed); it therefore requires
    the truth to be part of the configuration.
    """
    init = config.init
    if init is None:
        raise ConfigError("init: required for this command")
    if init.theta is not None:
        theta0 = np.asarray(init.theta, dtype=float)
        x00 = np.asarray(init.x0, dtype=float)
    else:
        if truth is None:
            raise ConfigError(
                "init: perturbed initialization needs a generation spec with the truth")
        rng = np.random.default_rng(init_seed(config))
        theta_true = np.asarray(truth["theta_true"], dtype=float)
        x0_true = np.asarray(truth["x0_true"], dtype=float)
        fraction_theta = init.perturb_theta or 0.0
        fraction_x0 = init.perturb_x0 or 0.0
        theta0 = theta_true * (1.0 + fraction_theta * rng.uniform(-1.0, 1.0, theta_true.size))
        x00 = x0_true * (1.0 + fraction_x0 * rng.uniform(-1.0, 1.0, x0_true.size))
    return theta0, x00


def build_options(config: RunConfig) -> IdentifyOptions:
    opt = config.optimizer
    box = None
    if opt.box is not None:
        box = (np.asarray(opt.box.lower, dtype=float),
               np.asarray(opt.box.upper, dtype=float))
    return IdentifyOptions(
        lr_theta=opt.lr_theta, lr_x0=opt.lr_x0, beta1=opt.beta1, beta2=opt.beta2,
        eps=opt.eps,
        stopping=StoppingCriteria(max_epochs=opt.max_epochs, cost_tol=opt.cost_tol,
                                  grad_tol=opt.grad_tol),
        box=box, seed=config.seed, gradient_method=opt.gradient_method,
        fd_step=opt.fd_step)
