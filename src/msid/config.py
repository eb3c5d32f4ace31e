"""Run configuration: JSON schema, validation, and builders.

A run configuration aggregates everything one experiment needs: the model,
where the data comes from (a CSV file or a generation spec), the loss, the
penalties, the optimizer options, and the initialization.  All randomness
flows from a single top-level seed; sub-seeds (data noise, initialization
perturbation) can be pinned explicitly but default to values derived from
it.

Each field is declared once, by the spec in its dataclass field
(:func:`_spec`): the default, the parser of the JSON value (a number, an
integer, a number list, a choice, a string, a boolean or a nested section),
an optional bound and, for a list, the model dimension its length must
match.  Penalty entries take the same specs, one table per penalty type
(:data:`PENALTIES`).  :func:`_parse` applies the specs of one section: an
unknown key, a value of the wrong type or outside its bound raises
:class:`ConfigError` naming the field's JSON path, and null stands for the
default only where the default is null.  The rules that tie fields together
(one dataset source, the init modes, box ordering, and the list lengths and
parameter domain that the model sets) run after the specs, and
``RunConfig.from_dict(cfg.to_dict()) == cfg`` holds for every valid
configuration.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteValue, OutsideDomain
from .gradient import LossSpec
from .model import Dataset, DynamicalModel, load_dataset
from .optimizer import GRADIENT_METHODS, IdentifyOptions, StoppingCriteria
from .penalties import (LowerBarrier, ParameterBox, PenaltySpec,
                        ReluUpperBound, UpperBarrier)
from .systems import (INTEGRATORS, NoiseSpec, euler_attitude_model,
                      generate_dataset, rotational_energy,
                      rotational_energy_term, scalar_linear_model)

MODEL_KINDS = ("euler_attitude", "scalar_linear")

# bounds: (test, what the test asks of a value)
POSITIVE = (lambda v: v > 0, "must be positive")
NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
OPEN_UNIT = (lambda v: 0 < v < 1, "must lie in (0, 1)")


def _at_least(low: int) -> tuple:
    return (lambda v: v >= low, f"must be >= {low}")


def _check_keys(mapping, allowed, path: str) -> None:
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


def _as_number_or_list(value, path: str):
    return (_as_float_list if isinstance(value, (list, tuple)) else _as_float)(value, path)


def _as_weight(value, path: str):
    """A nonnegative scalar weight, or a matrix given as equal-length rows."""
    if isinstance(value, (list, tuple)):
        rows = [_as_float_list(row, f"{path}[{i}]") for i, row in enumerate(value)]
        if len({len(row) for row in rows}) > 1:
            raise ConfigError(f"{path}: rows must have equal lengths")
        return rows
    weight = _as_float(value, path)
    if weight < 0:
        raise ConfigError(f"{path}: scalar weight must be nonnegative")
    return weight


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected a boolean, got {value!r}")
    return value


def _choice(options: tuple):
    def parse(value, path: str):
        if value not in options:
            raise ConfigError(f"{path}: must be one of {options}, got {value!r}")
        return value
    return parse


def _section(cls):
    return lambda value, path: _parse(cls, value, path)


def _spec(parse, default=MISSING, bound=None, size=None, factory=MISSING):
    """One config field.  ``parse(value, path)`` turns the JSON value into
    the field's value; ``bound`` is an optional (test, message) pair; ``size``
    names the model dimension a list's length must match ("theta" is a
    parameter vector, n_theta long, that the model must also accept).  A
    field with neither ``default`` nor ``factory`` is required."""
    return field(default=default, default_factory=factory,
                 metadata={"parse": parse, "bound": bound, "size": size})


def _parse_fields(specs: dict, data, path: str) -> dict:
    """The parsed value of each key that ``data`` gives, by its spec."""
    _check_keys(data, specs, path or "config")
    values = {}
    for name, spec in specs.items():
        where = f"{path}.{name}" if path else name
        if name not in data:
            if spec.default is MISSING and spec.default_factory is MISSING:
                raise ConfigError(f"{where}: required")
        elif data[name] is not None or spec.default is not None:
            value = spec.metadata["parse"](data[name], where)
            bound = spec.metadata["bound"]
            if bound is not None and not bound[0](value):
                raise ConfigError(f"{where}: {bound[1]}, got {value}")
            values[name] = value
    return values


def _parse(cls, data, path: str):
    """A config section from its JSON object: the field specs of ``cls``,
    then the section's cross-field rules (its ``_check``), if it has any."""
    cfg = cls(**_parse_fields({f.name: f for f in fields(cls)}, data, path))
    if hasattr(cfg, "_check"):
        cfg._check(path)
    return cfg


def _check_box(lower: list, upper: list, path: str) -> None:
    if any(lo > up for lo, up in zip(lower, upper)):
        raise ConfigError(f"{path}: lower bound exceeds upper bound")


@dataclass
class ModelConfig:
    kind: str = _spec(_choice(MODEL_KINDS), "euler_attitude")
    dt: float = _spec(_as_float, 0.1, POSITIVE)
    integrator: str = _spec(_choice(INTEGRATORS), "forward_euler")


@dataclass
class NoiseConfig:
    torque_mean: float = _spec(_as_float, 0.0)
    torque_std: float = _spec(_as_float, 0.0, NONNEGATIVE)
    obs_std: float = _spec(_as_float, 0.0, NONNEGATIVE)
    seed: Optional[int] = _spec(_as_int, None, NONNEGATIVE)


@dataclass
class GenerateConfig:
    theta_true: list = _spec(_as_float_list, size="theta")
    x0_true: list = _spec(_as_float_list, size="n_x")
    horizon: int = _spec(_as_int, bound=_at_least(2))
    noise: NoiseConfig = _spec(_section(NoiseConfig), factory=NoiseConfig)


@dataclass
class DatasetConfig:
    path: Optional[str] = _spec(_as_str, None)
    generate: Optional[GenerateConfig] = _spec(_section(GenerateConfig), None)
    known_inputs: bool = _spec(_as_bool, True)
    nominal_input: Optional[Union[float, list]] = _spec(_as_number_or_list, None, size="n_u")

    def _check(self, path: str) -> None:
        if (self.path is None) == (self.generate is None):
            raise ConfigError(f"{path}: give exactly one of 'path' or 'generate'")


@dataclass
class LossConfig:
    q: Union[float, list] = _spec(_as_weight, 1.0)
    horizon: Optional[int] = _spec(_as_int, None, _at_least(2))


@dataclass
class BoxConfig:
    lower: list = _spec(_as_float_list, size="n_theta")
    upper: list = _spec(_as_float_list, size="n_theta")

    def _check(self, path: str) -> None:
        _check_box(self.lower, self.upper, path)


@dataclass
class OptimizerConfig:
    lr_theta: float = _spec(_as_float, 1e-3, POSITIVE)
    lr_x0: float = _spec(_as_float, 1e-4, POSITIVE)
    beta1: float = _spec(_as_float, 0.9, OPEN_UNIT)
    beta2: float = _spec(_as_float, 0.999, OPEN_UNIT)
    eps: float = _spec(_as_float, 1e-8, POSITIVE)
    max_epochs: int = _spec(_as_int, 1000, _at_least(1))
    cost_tol: float = _spec(_as_float, 0.0, NONNEGATIVE)
    grad_tol: float = _spec(_as_float, 0.0, NONNEGATIVE)
    box: Optional[BoxConfig] = _spec(_section(BoxConfig), None)
    gradient_method: str = _spec(_choice(GRADIENT_METHODS), "adjoint")
    fd_step: float = _spec(_as_float, 1e-6, POSITIVE)


@dataclass
class InitConfig:
    theta: Optional[list] = _spec(_as_float_list, None, size="theta")
    x0: Optional[list] = _spec(_as_float_list, None, size="n_x")
    perturb_theta: Optional[float] = _spec(_as_float, None, NONNEGATIVE)
    perturb_x0: Optional[float] = _spec(_as_float, None, NONNEGATIVE)
    seed: Optional[int] = _spec(_as_int, None, NONNEGATIVE)

    def _check(self, path: str) -> None:
        explicit = self.theta is not None or self.x0 is not None
        perturbed = self.perturb_theta is not None or self.perturb_x0 is not None
        if explicit and perturbed:
            raise ConfigError(f"{path}: give explicit values or perturbation fractions, not both")
        if not explicit and not perturbed:
            raise ConfigError(f"{path}: initialization is required")
        if explicit and (self.theta is None or self.x0 is None):
            raise ConfigError(f"{path}: explicit initialization needs both 'theta' and 'x0'")


def _as_reference(value, path: str):
    return value if value == "first_observation" else _as_float(value, path)


_BOUNDS = _spec(_as_float_list, size="n_x")
_ALPHA = _spec(_as_float, 1.0, POSITIVE)
# per penalty type: the term it builds and the spec of each key besides
# "type" and "lambda" (the term's keyword arguments)
PENALTIES = {
    "upper_barrier": (UpperBarrier, {"bounds": _BOUNDS, "alpha": _ALPHA}),
    "lower_barrier": (LowerBarrier, {"bounds": _BOUNDS, "alpha": _ALPHA}),
    "parameter_box": (ParameterBox, {"lower": _spec(_as_float_list, size="n_theta"),
                                     "upper": _spec(_as_float_list, size="n_theta"),
                                     "alpha": _ALPHA}),
    "energy_conservation": (rotational_energy_term, {
        "inertia": _spec(_as_float_list, size="theta"),
        "reference": _spec(_as_reference, "first_observation")}),
    "relu_upper_bound": (ReluUpperBound, {"bounds": _BOUNDS}),
}
PENALTY_TYPES = tuple(PENALTIES)
_TYPE = _spec(_choice(PENALTY_TYPES))
_WEIGHT = _spec(_as_float, 1.0, NONNEGATIVE)


def _as_penalties(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    entries = []
    for index, entry in enumerate(value):
        where = f"{path}[{index}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: expected an object")
        kind = entry.get("type")
        if kind not in PENALTY_TYPES:
            raise ConfigError(f"{where}.type: must be one of {PENALTY_TYPES}, got {kind!r}")
        parsed = _parse_fields({"type": _TYPE, "lambda": _WEIGHT, **PENALTIES[kind][1]},
                               entry, where)
        if kind == "parameter_box":
            _check_box(parsed["lower"], parsed["upper"], where)
        entries.append(parsed)
    return entries


def _sized_lists(cfg, path: str):
    """(JSON path, list, size) of each list field below ``cfg`` whose spec
    names a model dimension."""
    for spec in fields(cfg):
        value, where = getattr(cfg, spec.name), path + spec.name
        if is_dataclass(value):
            yield from _sized_lists(value, where + ".")
        elif spec.metadata["size"] is not None and isinstance(value, list):
            yield where, value, spec.metadata["size"]


@dataclass(kw_only=True)
class RunConfig:
    model: ModelConfig = _spec(_section(ModelConfig), factory=ModelConfig)
    dataset: DatasetConfig = _spec(_section(DatasetConfig))
    loss: LossConfig = _spec(_section(LossConfig), factory=LossConfig)
    optimizer: OptimizerConfig = _spec(_section(OptimizerConfig), factory=OptimizerConfig)
    init: Optional[InitConfig] = _spec(_section(InitConfig), None)
    penalties: list = _spec(_as_penalties, factory=list)
    seed: int = _spec(_as_int, 0, NONNEGATIVE)
    out_dir: Optional[str] = _spec(_as_str, None)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return _parse(cls, data, "")

    def _check_model_fit(self, path: str = "") -> None:
        """Refuse a penalty the model cannot take, a list whose length does
        not match the model's dimensions, or a parameter vector outside the
        model's domain, naming its path."""
        model = build_model(self.model)
        dims = model.dims
        lists = list(_sized_lists(self, ""))
        for index, entry in enumerate(self.penalties):
            if entry["type"] == "energy_conservation" and self.model.kind != "euler_attitude":
                raise ConfigError(
                    f"penalties[{index}]: energy_conservation requires the attitude model")
            lists += [(f"penalties[{index}].{key}", entry[key], spec.metadata["size"])
                      for key, spec in PENALTIES[entry["type"]][1].items()
                      if key in entry and spec.metadata["size"] is not None]
        for where, values, size in lists:
            n = getattr(dims, "n_theta" if size == "theta" else size)
            if len(values) != n:
                raise ConfigError(f"{where}: expected {n} components, got {len(values)}")
            if size == "theta":
                try:
                    model.f(np.zeros(dims.n_x), np.zeros(dims.n_u), np.asarray(values))
                except OutsideDomain as exc:
                    raise ConfigError(f"{where}: {exc}") from exc

    _check = _check_model_fit

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
        term, keys = PENALTIES[entry["type"]]
        args = {key: entry.get(key, spec.default) for key, spec in keys.items()}
        args = {key: np.asarray(value, dtype=float) if isinstance(value, list) else value
                for key, value in args.items()}
        if args.get("reference") == "first_observation":
            args["reference"] = rotational_energy(dataset.observations[0], args["inertia"])
        terms.append(term(**args, weight=entry.get("lambda", _WEIGHT.default)))
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
