"""Simulation harness: synthetic skills, injected bugs, fingerprint and
sensor-data generators, and ready-made scenarios.

Built-in scenarios: ``fig3``/``fig4``/``fig5`` are four-skill, 241-function
studies with a bug in f2 and differing skill/function overlap structure;
``exoneration`` and ``localizer-ambiguity`` are desk-scale manipulation-stack
studies (a succeeding skill clears its functions; two function groups that
always run together cannot be told apart).

A database's runs are drawn in one generator call and checked as one batch
(:meth:`Fingerprint.batch`); the draws, and the generator's state after
them, are those of simulating the runs one by one.

Synthetic sensor runs for the observation model follow one fixed waveform, a
jittered sinusoid per channel plus white noise (:class:`SensorSynthSpec`);
only the channel count, the length and the injected anomaly are set.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .blame import Belief, coverage_indices
from .core import (ExperienceDb, Fingerprint, FunctionRegistry, Observation,
                   SensorSeries, SkillId)
from .errors import ConfigError, ExecutorError, ScenarioError, ValidationError
from .fpf import BlameConfig
from .planner import LoopTrace, PlannerConfig, run_testing_loop
from .store import (_FLOAT, _INT, _NUMBER, _OBJECT, _STRING, _STRINGS, _field, _objects,
                    _read_json)


@dataclass(frozen=True)
class SimSkillSpec:
    """Generator description of one artificial skill."""

    skill: SkillId
    used_functions: tuple[str, ...]
    count_mu: float = 2.0
    count_sigma: float = 0.5
    T: int = 100
    dt: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "used_functions", tuple(self.used_functions))
        if not self.used_functions:
            raise ValidationError(f"skill {self.skill!r} must use at least one function")
        if self.T < 1:
            raise ValidationError("T must be >= 1")
        if self.count_sigma < 0:
            raise ValidationError("count sigma must be >= 0")


@dataclass(frozen=True)
class SimWorld:
    """Ground truth of a simulated study: which functions are broken."""

    registry: FunctionRegistry
    buggy_functions: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "buggy_functions", frozenset(self.buggy_functions))
        for name in self.buggy_functions:
            if name not in self.registry:
                raise ValidationError(f"buggy function {name!r} not in registry")


def gen_fingerprints(spec: SimSkillSpec, registry: FunctionRegistry,
                     rng: np.random.Generator, n: int) -> list[Fingerprint]:
    """``n`` runs' fingerprints: counts ~ N(mu, sigma^2) clamped at zero for
    used functions; exactly zero rows for everything else.

    One draw of shape (n, used functions, T) gives every run, so the stream
    and the generator's state afterwards are those of n one-run draws. Each
    run's rows are drawn in ``used_functions`` order; a function listed twice
    keeps its last draw. The runs are checked as one batch.
    """
    idx = registry.indices(spec.used_functions)
    draws = rng.normal(spec.count_mu, spec.count_sigma, size=(n, idx.size, spec.T))
    np.maximum(draws, 0.0, out=draws)
    rows, last = np.unique(idx[::-1], return_index=True)
    order = idx.size - 1 - last   # the draw that each row takes
    if not np.array_equal(order, np.arange(idx.size)):
        draws = np.take(draws, order, axis=1)
    return Fingerprint.batch(np.tile(rows, n), draws.reshape(-1, spec.T),
                             np.full(n, rows.size), registry.F, dt=spec.dt)


def gen_fingerprint(spec: SimSkillSpec, registry: FunctionRegistry,
                    rng: np.random.Generator) -> Fingerprint:
    """One run's fingerprint, as :func:`gen_fingerprints` draws it."""
    return gen_fingerprints(spec, registry, rng, 1)[0]


def simulate_execution(spec: SimSkillSpec, world: SimWorld,
                       rng: np.random.Generator) -> Observation:
    """One simulated run. Success is deterministic: the skill fails iff it
    uses a buggy function. Failures carry a true failure time drawn uniformly
    from the middle half of the execution. The run carries no sensor record
    (fingerprint-only studies bypass the sensor model)."""
    fingerprint = gen_fingerprint(spec, registry=world.registry, rng=rng)
    success = not (set(spec.used_functions) & world.buggy_functions)
    t_fail = None
    if not success:
        lo, hi = spec.T // 4, max(spec.T // 4 + 1, (3 * spec.T) // 4)
        t_fail = int(rng.integers(lo, hi))
    return Observation(sensors=None, fingerprint=fingerprint,
                       success=success, skill=spec.skill, t_fail=t_fail)


class SimExecutor:
    """Deterministic executor over simulated skills (one stream per skill)."""

    def __init__(self, specs: Mapping[SkillId, SimSkillSpec], world: SimWorld,
                 seed: int | np.random.SeedSequence = 0):
        self._specs = dict(specs)
        self._world = world
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        self._rngs = {s: np.random.default_rng(child)
                      for s, child in zip(sorted(self._specs), ss.spawn(len(self._specs)))}

    def execute(self, skill: SkillId) -> Observation:
        if skill not in self._specs:
            raise ExecutorError(f"no simulated skill {skill!r}")
        return simulate_execution(self._specs[skill], self._world, self._rngs[skill])


def build_database(spec: SimSkillSpec, registry: FunctionRegistry,
                   rng: np.random.Generator, size: int) -> ExperienceDb:
    """Simulate ``size`` successful executions (pre-bug world) for one skill:
    the runs :func:`simulate_execution` would give one by one in a world
    without bugs, drawn and checked as one batch."""
    obs = [Observation(sensors=None, fingerprint=fp, success=True, skill=spec.skill)
           for fp in gen_fingerprints(spec, registry, rng, size)]
    return ExperienceDb.from_observations(spec.skill, obs, registry)


# ---------------------------------------------------------------------------
# Synthetic sensor data for the observation model.

@dataclass(frozen=True)
class AnomalySpec:
    """Failure mode injected into negative sequences from ``onset`` onward.

    kind "constant-shift" adds magnitude * noise sigma to each channel, with
    the sign alternating +, - by channel; "channel-dropout" zeroes channel
    ``channel``; "freeze" holds every channel at its onset value.
    """

    kind: str = "constant-shift"
    onset: int = 120
    magnitude: float = 3.0
    channel: int = 0

    _KINDS = ("constant-shift", "channel-dropout", "freeze")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValidationError(f"anomaly kind must be one of {self._KINDS}")
        if self.onset < 0:
            raise ValidationError("anomaly onset must be >= 0")


# the synthetic sensors' sampling step and noise sigma (see SensorSynthSpec)
_SENSOR_DT = 0.05
_NOISE_SIGMA = 0.1


@dataclass(frozen=True)
class SensorSynthSpec:
    """``channels`` sinusoids of ``T`` steps sampled at dt 0.05: channel k of
    D has frequency linspace(0.5, 3.0, D)[k] cycles per run, phase
    linspace(0, 2 pi, D, endpoint=False)[k], amplitude 0.35 and offset
    linspace(0.3, 0.7, D)[k]. Each run shifts every phase by one jitter drawn
    from U(-0.4, 0.4) and adds N(0, 0.1^2) noise to every value."""

    channels: int = 8
    T: int = 200
    anomaly: AnomalySpec = field(default_factory=AnomalySpec)

    def __post_init__(self):
        if self.channels < 1 or self.T < 1:
            raise ValidationError("need channels >= 1 and T >= 1")
        if self.anomaly.onset >= self.T:
            raise ValidationError("anomaly onset must lie before T")
        if not 0 <= self.anomaly.channel < self.channels:
            raise ValidationError(f"anomaly channel must lie in [0, {self.channels}), "
                                  f"found {self.anomaly.channel}")


@dataclass(frozen=True)
class SensorSuite:
    train: tuple[SensorSeries, ...]
    positive: tuple[SensorSeries, ...]
    negative: tuple[SensorSeries, ...]
    onset: int


def _synth_clean(spec: SensorSynthSpec, rng: np.random.Generator) -> np.ndarray:
    d, t = spec.channels, np.arange(spec.T)
    jitter = rng.uniform(-0.4, 0.4)
    freq = np.linspace(0.5, 3.0, d)[:, None]
    phase = (np.linspace(0.0, 2 * math.pi, d, endpoint=False) + jitter)[:, None]
    off = np.linspace(0.3, 0.7, d)[:, None]
    clean = off + 0.35 * np.sin(2 * math.pi * freq * t[None, :] / spec.T + phase)
    return clean + rng.normal(0.0, _NOISE_SIGMA, size=(d, spec.T))


def _apply_anomaly(data: np.ndarray, spec: SensorSynthSpec) -> np.ndarray:
    a = spec.anomaly
    out = data.copy()
    if a.kind == "constant-shift":
        signs = np.where(np.arange(spec.channels) % 2 == 0, 1.0, -1.0)
        out[:, a.onset:] += (signs * a.magnitude * _NOISE_SIGMA)[:, None]
    elif a.kind == "channel-dropout":
        out[a.channel, a.onset:] = 0.0
    else:  # freeze
        out[:, a.onset:] = out[:, a.onset][:, None]
    return out


def gen_sensor_suite(spec: SensorSynthSpec, n_train: int, n_pos: int, n_neg: int,
                     rng: np.random.Generator) -> SensorSuite:
    """Labeled sets: train and positive share the generative process, negative
    sequences carry the anomaly from its onset onward."""
    if min(n_train, n_pos, n_neg) < 1:
        raise ValidationError("all set sizes must be >= 1")

    def series(mat):
        return SensorSeries(mat, dt=_SENSOR_DT)

    train = tuple(series(_synth_clean(spec, rng)) for _ in range(n_train))
    pos = tuple(series(_synth_clean(spec, rng)) for _ in range(n_pos))
    neg = tuple(series(_apply_anomaly(_synth_clean(spec, rng), spec)) for _ in range(n_neg))
    return SensorSuite(train=train, positive=pos, negative=neg, onset=spec.anomaly.onset)


# ---------------------------------------------------------------------------
# Scenarios.

# The JSON types that a scenario's int and float fields take, by the field's
# annotation, each checked in turn, with the value's conversion: an int field
# takes a JSON integer, a float field a JSON number that float() then takes
# without overflow, and a bool or a string is neither. An absent field takes
# the default.
_SCENARIO_SCALARS = {"int": ((_INT,), int),
                     "float": ((("a number", _NUMBER[1]), _FLOAT), float)}


def _scalars(cls, d: dict, where: str = "") -> dict:
    """The entries of the scenario object ``d`` that set an int or float
    field of the dataclass ``cls``, each checked against its JSON type."""
    out = {}
    for f in fields(cls):
        if f.name in d and f.type in _SCENARIO_SCALARS:
            kinds, convert = _SCENARIO_SCALARS[f.type]
            for kind in kinds:
                value = _field(d, f.name, kind, "", ScenarioError, where)
            out[f.name] = convert(value)
    return out


def _known(d: dict, names, where: str = "") -> None:
    """Reject a key of the scenario object ``d`` that is not in ``names``."""
    for key in d:
        if key not in names:
            raise ScenarioError(f"unknown field {where + key!r}")


def _nested(cls, d: dict, key: str):
    """The ``cls`` that the scenario object ``d[key]`` sets, its fields and
    scalars checked."""
    sub = _field(d, key, _OBJECT, "", ScenarioError)
    _known(sub, [f.name for f in fields(cls)], f"{key}.")
    return cls(**{**sub, **_scalars(cls, sub, f"{key}.")})


def _skill(d: dict, where: str) -> tuple[SkillId, tuple[str, ...]]:
    """The (skill, functions) pair of a scenario's ``skills`` entry ``d``."""
    _known(d, ("skill", "functions"), where)
    return (_field(d, "skill", _STRING, "", ScenarioError, where),
            tuple(_field(d, "functions", _STRINGS, "", ScenarioError, where)))


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    functions: tuple[str, ...]
    skills: tuple[tuple[SkillId, tuple[str, ...]], ...]
    buggy: tuple[str, ...]
    db_size: int = 70
    T: int = 100
    dt: float = 0.05
    count_mu: float = 2.0
    count_sigma: float = 0.5
    seed: int = 1
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    blame: BlameConfig | None = None

    def __post_init__(self):
        # each range is written so that NaN falls outside it
        for name, ok, want in (("seed", self.seed >= 0, "an integer >= 0"),
                               ("db_size", self.db_size >= 1, "an integer >= 1"),
                               ("T", self.T >= 1, "an integer >= 1"),
                               ("dt", 0 < self.dt < math.inf, "a finite number > 0"),
                               ("count_mu", abs(self.count_mu) < math.inf, "a finite number"),
                               ("count_sigma", 0 <= self.count_sigma < math.inf,
                                "a finite number >= 0")):
            if not ok:
                raise ScenarioError(f"{name!r} must be {want}, found {getattr(self, name)!r}")
        seen = set()
        for skill, _ in self.skills:
            if skill in seen:
                raise ScenarioError(f"skill {skill!r} is listed more than once")
            seen.add(skill)

    def resolved_blame(self) -> BlameConfig:
        return self.blame if self.blame is not None else BlameConfig.for_sampling(self.dt)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "functions": list(self.functions),
            "skills": [{"skill": s, "functions": list(fns)} for s, fns in self.skills],
            "buggy": list(self.buggy),
            "db_size": self.db_size,
            "T": self.T,
            "dt": self.dt,
            "count_mu": self.count_mu,
            "count_sigma": self.count_sigma,
            "seed": self.seed,
            "planner": asdict(self.planner),
            "blame": asdict(self.resolved_blame()),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        try:
            _known(d, [f.name for f in fields(cls)])
            return cls(
                name=_field(d, "name", _STRING, "", ScenarioError),
                functions=tuple(_field(d, "functions", _STRINGS, "", ScenarioError)),
                skills=tuple(_skill(sk, f"skills[{i}].") for i, sk in
                             enumerate(_objects(d, "skills", "", ScenarioError))),
                buggy=tuple(_field(d, "buggy", _STRINGS, "", ScenarioError)),
                planner=_nested(PlannerConfig, d, "planner") if "planner" in d else PlannerConfig(),
                blame=_nested(BlameConfig, d, "blame") if "blame" in d else None,
                **_scalars(cls, d),
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ScenarioError(f"malformed scenario description: {exc}") from exc


def _fig_functions() -> tuple[str, ...]:
    return tuple(f"f{i}" for i in range(1, 242))


def _fig_config(name: str, skill_sets: Sequence[Sequence[int]], seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        name=name,
        functions=_fig_functions(),
        skills=tuple((f"a{i + 1}", tuple(f"f{j}" for j in fns))
                     for i, fns in enumerate(skill_sets)),
        buggy=("f2",),
        seed=seed,
    )


_ROBOT_FUNCTIONS = ("localiseObject", "planCartesianTrajectory", "cartesianPtp",
                    "computeIk", "armControl", "closeHand",
                    "planJointTrajectory", "jointPtp")
_ROBOT_SKILLS = (
    ("grasp", ("localiseObject", "planCartesianTrajectory", "cartesianPtp",
               "computeIk", "armControl", "closeHand")),
    ("pressButton", ("planJointTrajectory", "jointPtp", "armControl")),
    ("handover", ("planJointTrajectory", "jointPtp", "armControl", "closeHand")),
)


def built_in_scenario(name: str, seed: int = 1) -> ScenarioConfig:
    if name == "fig3":
        return _fig_config(name, [(1, 2), (2, 4, 5), (3, 4, 6), (3, 4, 5, 6)], seed)
    if name == "fig4":
        return _fig_config(name, [(1, 2), (2, 4, 5), (1, 3, 6), (1, 3, 4, 6)], seed)
    if name == "fig5":
        return _fig_config(name, [(1, 2), (2, 4), (1, 3, 6), (1, 3, 4, 6)], seed)
    if name == "exoneration":
        # A broken Cartesian planner sinks the grasp; the joint-space skills
        # succeed and clear everything they touch.
        return ScenarioConfig(
            name=name, functions=_ROBOT_FUNCTIONS, skills=_ROBOT_SKILLS,
            buggy=("planCartesianTrajectory",), seed=seed,
            planner=PlannerConfig(max_iterations=25, seed=0))
    if name == "localizer-ambiguity":
        # The localiser and the Cartesian-planning functions only ever run
        # together, so blame cannot separate them.
        return ScenarioConfig(
            name=name, functions=_ROBOT_FUNCTIONS, skills=_ROBOT_SKILLS,
            buggy=("localiseObject",), seed=seed,
            planner=PlannerConfig(max_iterations=25, seed=0))
    raise ScenarioError(
        f"unknown scenario {name!r}; built-ins: {', '.join(BUILT_IN_SCENARIOS)}")


BUILT_IN_SCENARIOS = ("fig3", "fig4", "fig5", "exoneration", "localizer-ambiguity")


def load_scenario(source: str, seed: int | None = None) -> ScenarioConfig:
    """Resolve a scenario by built-in name or JSON file path. A file that is
    not a JSON object is a StoreError naming it."""
    if source in BUILT_IN_SCENARIOS:
        return built_in_scenario(source, seed=1 if seed is None else seed)
    try:
        doc = _read_json(source)
    except FileNotFoundError:
        raise ScenarioError(
            f"unknown scenario {source!r}; built-ins: {', '.join(BUILT_IN_SCENARIOS)}"
        ) from None
    try:
        cfg = ScenarioConfig.from_dict(doc)
    except (ScenarioError, ConfigError) as exc:
        raise type(exc)(f"scenario file {source!r}: {exc}") from exc
    return cfg if seed is None else replace(cfg, seed=seed)


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    registry: FunctionRegistry
    belief: Belief
    trace: LoopTrace
    candidates: tuple[str, ...]

    def posterior_of(self, name: str) -> float:
        return float(self.belief.probs[self.registry.index(name)])

    def top(self, k: int = 5) -> list[tuple[str, float]]:
        order = np.argsort(self.belief.probs)[::-1][:k]
        return [(self.registry.names[i], float(self.belief.probs[i])) for i in order]


def candidate_set(belief: Belief, registry: FunctionRegistry) -> tuple[str, ...]:
    """The candidate set of :func:`coverage_indices`, in registry order."""
    idx = sorted(coverage_indices(belief))
    return tuple(registry.names[i] for i in idx)


def run_scenario(config: ScenarioConfig, out_dir: str | None = None) -> ScenarioResult:
    """Build the study (registry, databases), run the testing loop
    against the buggy world, and optionally write the report bundle.

    The scenario seed drives every stream: database simulation, loop
    executions, and gain sampling."""
    config = replace(config, planner=replace(config.planner, seed=config.seed))
    registry = FunctionRegistry(config.functions)
    blame = config.resolved_blame()
    specs = {
        skill: SimSkillSpec(skill=skill, used_functions=fns, count_mu=config.count_mu,
                            count_sigma=config.count_sigma, T=config.T, dt=config.dt)
        for skill, fns in config.skills
    }
    skills = tuple(s for s, _ in config.skills)
    root = np.random.SeedSequence(config.seed)
    db_ss, exec_ss = root.spawn(2)
    dbs = {}
    for child, skill in zip(db_ss.spawn(len(skills)), skills):
        dbs[skill] = build_database(specs[skill], registry,
                                    np.random.default_rng(child), config.db_size)
    world = SimWorld(registry=registry, buggy_functions=frozenset(config.buggy))
    executor = SimExecutor(specs, world, seed=exec_ss)
    belief, trace = run_testing_loop(executor, dbs, None, config.planner, blame)
    result = ScenarioResult(config=config, registry=registry, belief=belief,
                            trace=trace, candidates=candidate_set(belief, registry))
    if out_dir is not None:
        from .reports import write_scenario_report
        write_scenario_report(out_dir, result)
    return result
