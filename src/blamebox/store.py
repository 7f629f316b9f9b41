"""Persistence: experience databases, fingerprint/observation models, and
whole studies, plus a replay executor over recorded executions.

Databases and recordings share one layout and hold :class:`Observation`
records. A database manifest's ``canonical_T`` must match the one its runs
give; a recording's is written but not checked.

A database directory holds ``manifest.json`` (version 3), one ``counts.npy``
and, only when some run carries sensors, one ``sensors.npy``: 1-d float64
arrays in numpy's own format, so round-trips are value-exact and each file
is one binary read. The counts file concatenates each run's row-major
(rows, 1 + T) block, one row ``index, c_0, ..., c_{T-1}`` per function with
a non-zero count, in ascending index order; the sensors file concatenates
each sensed run's row-major (D, T) block, one row per channel. Each manifest
entry records the run's ``success`` (a boolean), ``t_fail`` (null or an
integer >= 0), ``T``, ``rows`` and ``D`` (null for a run without sensors).
A run with neither sensors nor a non-zero count stores one all-zero counts
row, so a manifest cannot ask for more than its files hold. A file is never
unpickled, and one whose dtype, ndim or size disagrees with its manifest is
a :class:`StoreError` naming it. Counts are read straight into the
row-sparse :class:`Fingerprint`, so loading builds no F x T matrix.

Studies and ``mom`` models are written at version 1, ``fpf`` models at version
2: ``support``, ``F``, ``T`` and the |support| x T ``mean`` and ``var``. Every
file is self-describing through ``format``, ``version`` and, for models,
``kind`` fields; another version (a version-1 or -2 database, a version-1
``fpf`` model) is a :class:`VersionError`, and loading validates shapes and
contents rather than trusting them. A model file is checked against its JSON
types, not coerced: an fpf ``support`` lists JSON integers, and every numeric
cell (fpf ``mean`` and ``var``; mom ``params``, ``norm_lo``, ``norm_hi``,
``loss_history`` and ``error_stats``) is a JSON number, not a bool or a
string. A study's ``dbs`` and ``replay`` entries
are relative paths inside its directory. Every JSON document goes through
:func:`_write_json` and :func:`_read_json`, and a missing or mistyped field
met while interpreting one is a :class:`StoreError` naming the file.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import (ExperienceDb, Fingerprint, FunctionRegistry, Observation,
                   SensorSeries, SkillId, validate_observation)
from .errors import (ConfigError, ExecutorError, KindError, StoreError, ValidationError,
                     VersionError)
from .fpf import FpfModel
from .mom import ErrorStats, MomBundle, MomModel, _PARAM_FIELDS

_DB_FORMAT = "blamebox-db"
_MODEL_FORMAT = "blamebox-model"
_STUDY_FORMAT = "blamebox-study"
_VERSION = 1
_DB_VERSION = 3
_MODEL_VERSIONS = {"fpf": 2, "mom": _VERSION}
_MALFORMED = (KeyError, TypeError, AttributeError, IndexError, ValueError, ArithmeticError)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # bad JSON syntax or bad UTF-8
            raise StoreError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise StoreError(f"{path}: expected a JSON object, found {type(payload).__name__}")
    return payload


@contextmanager
def _interpreting(path: str, *also: type[Exception]):
    """Report a missing or mistyped field met while interpreting the document
    at ``path`` (or any error of the types in ``also``) as a StoreError."""
    try:
        yield
    except _MALFORMED + also as exc:
        raise StoreError(f"{path}: malformed content: {type(exc).__name__}: {exc}") from exc


def _inside(manifest_path: str, rel) -> str:
    """A manifest's file entry resolved against the manifest's directory; it
    must be a relative path that stays inside it (checked without a syscall)."""
    if (not isinstance(rel, str) or os.path.isabs(rel)
            or os.path.normpath(rel).split(os.sep)[0] == os.pardir):
        raise StoreError(f"{manifest_path}: entry {rel!r} is not a relative path "
                         "inside its directory")
    return os.path.join(os.path.dirname(manifest_path), rel)


def _read_document(path: str, expected_format: str, supported=_VERSION) -> dict:
    """A JSON document whose ``format`` matches and whose ``version`` is
    ``supported``, or the version that ``supported`` gives its ``kind``."""
    payload = _read_json(path)
    fmt, version = payload.get("format"), payload.get("version")
    if fmt != expected_format:
        raise StoreError(f"{path}: expected format {expected_format!r}, found {fmt!r}")
    if isinstance(supported, dict):
        supported = supported.get(str(payload.get("kind")), _VERSION)
    if version != supported:
        raise VersionError(f"{path}: unsupported version {version!r} (supported: {supported})")
    return payload


@contextmanager
def _naming(path: str, error: type[Exception] = ValidationError):
    """Report a ValidationError raised inside the block as ``error``, with
    ``path`` prefixed to its message."""
    try:
        yield
    except ValidationError as exc:
        raise error(f"{path}: {exc}") from exc


def _load_matrix(path: str) -> np.ndarray:
    """The 1-d float64 array of the ``.npy`` file at ``path``, never unpickled."""
    from tokenize import TokenError   # numpy parses the header with tokenize
    with open(path, "rb") as fh:
        try:
            arr = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError, SyntaxError, TokenError, MemoryError) as exc:
            # a short file, a bad header, pickled data, or a shape past memory
            raise StoreError(f"{path}: unreadable array: {type(exc).__name__}: {exc}") from exc
    if not isinstance(arr, np.ndarray) or arr.dtype != np.float64 or arr.ndim != 1:
        found = (f"a {arr.ndim}-d {arr.dtype} array" if isinstance(arr, np.ndarray)
                 else type(arr).__name__)
        raise StoreError(f"{path}: expected a 1-d float64 array, found {found}")
    return arr


def _fingerprint(path: str, block: np.ndarray, F: int, dt: float) -> Fingerprint:
    """The fingerprint whose rows ``index, c_0, ..., c_{T-1}`` are the rows of
    ``block``, read from the file at ``path``."""
    with _naming(path, StoreError):  # a bad index is a malformed file, not bad data
        rows = Fingerprint.check_rows(block[:, 0], F)
    with _naming(path):
        return Fingerprint.from_rows(rows, block[:, 1:], F, dt=dt)


def _blocks(path: str, shapes: list[tuple[int, int]], manifest_path: str) -> list[np.ndarray]:
    """The ``.npy`` array at ``path`` cut into consecutive row-major blocks
    of the given shapes, which must use up all of it."""
    flat = _load_matrix(path)
    sizes = [rows * cols for rows, cols in shapes]
    if flat.size != sum(sizes):
        raise StoreError(f"{path}: holds {flat.size} values, but the blocks that "
                         f"{manifest_path} lists take {sum(sizes)}")
    blocks, start = [], 0
    for shape, size in zip(shapes, sizes):
        blocks.append(flat[start:start + size].reshape(shape))
        start += size
    return blocks


def _field(manifest_path: str, doc: dict, key: str, want: str, ok, owner="an entry's"):
    """``doc[key]``, which ``ok`` must accept; else a StoreError: it must be ``want``."""
    value = doc[key]
    if not ok(value):
        raise StoreError(f"{manifest_path}: {owner} {key!r} must be {want}, found {value!r}")
    return value


def _dimension(manifest_path: str, doc: dict, key: str, least: int,
               owner: str = "an entry's") -> int:
    """``doc[key]``, which must be a JSON integer >= ``least``."""
    return _field(manifest_path, doc, key, f"an integer >= {least}",
                  lambda v: type(v) is int and v >= least, owner)


def _leaves(value):
    """The cells of nested JSON lists ``value``, depth first."""
    if type(value) is list:
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _numbers(path: str, doc: dict, key: str) -> np.ndarray:
    """``doc[key]``, nested lists whose every cell is a JSON number (a bool or
    a string is not one), as a float64 array."""
    value = doc[key]
    bad = [v for v in _leaves(value) if type(v) not in (int, float)]
    if bad:
        raise StoreError(f"{path}: its {key!r} must hold JSON numbers only, found {bad[0]!r}")
    return np.array(value, dtype=np.float64)


def _positive(path: str, doc: dict, key: str) -> float:
    """``doc[key]``, a finite JSON number > 0, as a float."""
    return float(_field(path, doc, key, "a finite number > 0",
                        lambda v: type(v) in (int, float) and 0 < v < np.inf, "its"))


def _runs(manifest_path: str, manifest: dict, F: int, dt: float):
    """(entry, sensors, fingerprint, counts file) of each run: its (rows, 1 + T)
    block in the directory's ``counts.npy`` and, if it has a D, its (D, T) block
    in ``sensors.npy``, read only then. Every entry is checked before any file
    is read, and one without sensors needs a counts row, so values back each T."""
    entries = manifest["observations"]
    shapes = []
    for e in entries:
        _field(manifest_path, e, "success", "a boolean", lambda v: type(v) is bool)
        _field(manifest_path, e, "t_fail", "null or an integer >= 0",
               lambda v: v is None or type(v) is int and v >= 0)
        D = None if e["D"] is None else _dimension(manifest_path, e, "D", 1)
        shapes.append((_dimension(manifest_path, e, "T", 1),
                       _dimension(manifest_path, e, "rows", 1 if D is None else 0), D))
    directory = os.path.dirname(manifest_path)
    counts_file = os.path.join(directory, "counts.npy")
    counts = _blocks(counts_file, [(rows, T + 1) for T, rows, _ in shapes], manifest_path)
    sensed = [(D, T) for T, _, D in shapes if D is not None]
    sensors_file = os.path.join(directory, "sensors.npy")
    series = iter(_blocks(sensors_file, sensed, manifest_path) if sensed else ())
    for entry, (_, _, D), block in zip(entries, shapes, counts):
        sensors = None
        if D is not None:
            with _naming(sensors_file):
                sensors = SensorSeries(next(series), dt=dt)
        yield entry, sensors, _fingerprint(counts_file, block, F, dt), counts_file


# ---------------------------------------------------------------------------
# Recorded executions and experience databases share one directory layout.

def _save_records(path: str, skill: SkillId, registry: FunctionRegistry,
                  records: Sequence[Observation], dt: float) -> None:
    """Write the runs, each of which must be sampled at ``dt``, and their manifest."""
    dt = float(dt)
    for i, rec in enumerate(records):
        if rec.fingerprint.dt != dt or (rec.sensors is not None and rec.sensors.dt != dt):
            sensed = "no sensors" if rec.sensors is None else f"dt={rec.sensors.dt} (sensors)"
            raise ValidationError(
                f"run {i} of skill {skill!r} is sampled at dt={rec.fingerprint.dt} "
                f"(fingerprint) with {sensed}, not at the dt={dt} written")
    os.makedirs(path, exist_ok=True)
    counts = []
    for r in records:
        rows, values = r.fingerprint.rows, r.fingerprint.values
        if rows.size == 0 and r.sensors is None:   # an all-zero row keeps T in the file
            rows, values = np.zeros(1), np.zeros((1, r.fingerprint.T))
        counts.append(np.column_stack([rows, values]))
    sensors = [r.sensors.data.ravel() for r in records if r.sensors is not None]
    np.save(os.path.join(path, "counts.npy"),
            np.concatenate([np.empty(0)] + [block.ravel() for block in counts]),
            allow_pickle=False)
    if sensors:
        np.save(os.path.join(path, "sensors.npy"), np.concatenate(sensors),
                allow_pickle=False)
    _write_json(os.path.join(path, "manifest.json"), {
        "format": _DB_FORMAT,
        "version": _DB_VERSION,
        "skill": skill,
        "canonical_T": records[0].fingerprint.T if records else 0,
        "dt": dt,
        "functions": list(registry.names),
        "observations": [{
            "success": bool(r.success),
            "t_fail": None if r.t_fail is None else int(r.t_fail),
            "T": r.fingerprint.T,
            "rows": len(block),
            "D": None if r.sensors is None else r.sensors.D,
        } for r, block in zip(records, counts)],
    })


def _load_records(path: str, registry: FunctionRegistry | None = None, listed=None
                  ) -> tuple[SkillId, int, list[Observation]]:
    """The skill, the manifest's ``canonical_T`` and the runs of a database
    directory; with ``registry``, its manifest must list the same functions, and
    with ``listed``, (the study manifest listing it, skill, dt), that skill and dt."""
    manifest_path = os.path.join(path, "manifest.json")
    manifest = _read_document(manifest_path, _DB_FORMAT, _DB_VERSION)
    with _interpreting(manifest_path):
        if registry is None:
            registry = FunctionRegistry(manifest["functions"])
        elif manifest["functions"] != list(registry.names):
            raise StoreError(f"{manifest_path}: lists other functions than expected")
        skill = manifest["skill"]
        dt = _positive(manifest_path, manifest, "dt")
        if listed is not None and (skill, dt) != listed[1:]:
            raise StoreError(f"{manifest_path}: holds skill {skill!r} at dt={dt}, but "
                             f"{listed[0]} lists it for skill {listed[1]!r} at dt={listed[2]}")
        canonical_T = _dimension(manifest_path, manifest, "canonical_T", 0, "its")
        records = []
        for entry, sensors, fingerprint, counts_file in _runs(manifest_path, manifest,
                                                              registry.F, dt):
            with _naming(counts_file):
                obs = validate_observation(
                    Observation(sensors=sensors, fingerprint=fingerprint,
                                success=entry["success"], skill=skill), registry)
            if entry["t_fail"] is not None:
                with _naming(manifest_path):
                    obs = replace(obs, t_fail=entry["t_fail"])
            records.append(obs)
    return skill, canonical_T, records


def save_db(db: ExperienceDb, path: str, registry: FunctionRegistry) -> None:
    _save_records(path, db.skill, registry, db.observations,
                  db.observations[0].fingerprint.dt)


def load_db(path: str, registry: FunctionRegistry | None = None, listed=None) -> ExperienceDb:
    """Load and validate an experience database (successful runs only); with
    ``registry`` and ``listed``, as :func:`_load_records` checks them. The
    manifest's ``canonical_T`` must be the one the runs give."""
    skill, canonical_T, records = _load_records(path, registry, listed)
    manifest_path = os.path.join(path, "manifest.json")
    with _naming(manifest_path):
        db = ExperienceDb(skill, records)
    if db.canonical_T != canonical_T:
        raise StoreError(f"{manifest_path}: canonical_T is "
                         f"{canonical_T}, but its runs give {db.canonical_T}")
    return db


def save_recorded(records: Sequence[Observation], path: str, skill: SkillId,
                  registry: FunctionRegistry, dt: float) -> None:
    """Persist raw executions (successes and failures) for later replay."""
    _save_records(path, skill, registry, records, dt)


def load_recorded(path: str, registry: FunctionRegistry | None = None,
                  listed=None) -> list[Observation]:
    """Load recorded executions; with ``registry`` and ``listed``, as
    :func:`_load_records` checks them. Their ``canonical_T`` is not checked."""
    return _load_records(path, registry, listed)[2]


class ReplayExecutor:
    """Feed recorded executions back to the testing loop, each skill's
    :class:`Observation` records in stored order.

    Requesting a skill more often than it was recorded raises
    :class:`ExecutorError`, which aborts the loop with the trace so far.
    """

    def __init__(self, recorded: Mapping[SkillId, Sequence[Observation]]):
        self._runs = {skill: iter(tuple(records)) for skill, records in recorded.items()}

    def execute(self, skill: SkillId) -> Observation:
        if skill not in self._runs:
            raise ExecutorError(f"no recorded executions for skill {skill!r}")
        run = next(self._runs[skill], None)
        if run is None:
            raise ExecutorError(f"recorded executions for skill {skill!r} exhausted")
        return run


# ---------------------------------------------------------------------------
# Model files.

def save_model(model: FpfModel | MomModel | MomBundle, path: str) -> None:
    bundle, model = (model, model.model) if isinstance(model, MomBundle) else (None, model)
    payload: dict = {"format": _MODEL_FORMAT, "version": _VERSION}
    if isinstance(model, FpfModel):
        payload.update(kind="fpf", version=_MODEL_VERSIONS["fpf"], support=model.support.tolist(),
                       F=model.F, T=model.T, n_samples=model.n_samples,
                       var_floor=model.var_floor, mean=model.mean.tolist(), var=model.var.tolist())
    elif isinstance(model, MomModel):
        payload.update(
            kind="mom",
            params={name: getattr(model, name).tolist() for name in _PARAM_FIELDS},
            norm_lo=model.norm_lo.tolist(),
            norm_hi=model.norm_hi.tolist(),
            loss_history=list(model.loss_history),
        )
        stats = bundle.error_stats if bundle else None
        payload["error_stats"] = (None if stats is None else
                                  {"mu": stats.mu.tolist(), "sigma": stats.sigma.tolist()})
    else:
        raise StoreError(f"cannot save object of type {type(model).__name__}")
    _write_json(path, payload)


def load_model(path: str, expect: str | None = None):
    """Load a model file; returns FpfModel or MomBundle depending on its kind.

    ``expect`` ("fpf" or "mom") turns a kind mismatch into :class:`KindError`.
    """
    payload = _read_document(path, _MODEL_FORMAT, _MODEL_VERSIONS)
    kind = payload.get("kind")
    if expect is not None and kind != expect:
        raise KindError(f"{path}: holds a {kind!r} model, expected {expect!r}")
    with _interpreting(path, ValidationError, ConfigError):
        if kind == "fpf":
            F, T = (_dimension(path, payload, key, 1, "its") for key in ("F", "T"))
            support = Fingerprint.check_rows(_field(
                path, payload, "support", "a list of integers",
                lambda v: type(v) is list and all(type(i) is int for i in v), "its"), F)
            mean, var = _numbers(path, payload, "mean"), _numbers(path, payload, "var")
            shape = (support.size, T) if support.size else (0,)   # no rows are written []
            if mean.shape != shape or var.shape != shape:
                raise StoreError(f"{path}: its mean and var must be {support.size} x {T} matrices")
            return FpfModel(support=support, mean=mean.reshape(-1, T), var=var.reshape(-1, T),
                            F=F, n_samples=_dimension(path, payload, "n_samples", 1, "its"),
                            var_floor=_positive(path, payload, "var_floor"))
        if kind == "mom":
            params = {name: _numbers(path, payload["params"], name) for name in _PARAM_FIELDS}
            model = MomModel(**params, norm_lo=_numbers(path, payload, "norm_lo"),
                             norm_hi=_numbers(path, payload, "norm_hi"),
                             loss_history=(_numbers(path, payload, "loss_history")
                                           if "loss_history" in payload else ()))
            stats = payload.get("error_stats")
            es = None if stats is None else ErrorStats(mu=_numbers(path, stats, "mu"),
                                                       sigma=_numbers(path, stats, "sigma"))
            return MomBundle(model=model, error_stats=es)
    raise KindError(f"{path}: unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# Studies: a directory bundling registry, per-skill databases, and optional
# recorded executions for replay.

@dataclass
class Study:
    """A loaded study; ``dbs`` is in the manifest's skill order."""

    registry: FunctionRegistry
    dbs: dict[SkillId, ExperienceDb]
    dt: float
    replay: dict[SkillId, list[Observation]]


def save_study(path: str, registry: FunctionRegistry,
               dbs: Mapping[SkillId, ExperienceDb], dt: float,
               replay: Mapping[SkillId, Sequence[Observation]] | None = None) -> None:
    os.makedirs(path, exist_ok=True)
    skills = sorted(dbs)
    db_paths, replay_paths = {}, {}
    for skill in skills:
        rel = os.path.join("dbs", skill)
        _save_records(os.path.join(path, rel), skill, registry, dbs[skill].observations, dt)
        db_paths[skill] = rel
    for skill in sorted(replay or {}):
        rel = os.path.join("replay", skill)
        save_recorded(list(replay[skill]), os.path.join(path, rel), skill, registry, dt)
        replay_paths[skill] = rel
    _write_json(os.path.join(path, "manifest.json"), {
        "format": _STUDY_FORMAT,
        "version": _VERSION,
        "functions": list(registry.names),
        "skills": skills,
        "dt": float(dt),
        "dbs": db_paths,
        "replay": replay_paths,
    })


def load_study(path: str) -> Study:
    """Load a study; every db and replay manifest must hold the study's ``dt``."""
    manifest_path = os.path.join(path, "manifest.json")
    manifest = _read_document(manifest_path, _STUDY_FORMAT)
    with _interpreting(manifest_path):
        registry = FunctionRegistry(manifest["functions"])
        dt = _positive(manifest_path, manifest, "dt")
        dbs = {}
        for skill in manifest["skills"]:
            rel = manifest["dbs"].get(skill)
            if rel is None:
                raise StoreError(f"{manifest_path}: no database listed for skill {skill!r}")
            dbs[skill] = load_db(_inside(manifest_path, rel), registry, (manifest_path, skill, dt))
        replay = {skill: load_recorded(_inside(manifest_path, rel), registry,
                                       (manifest_path, skill, dt))
                  for skill, rel in manifest.get("replay", {}).items()}
        return Study(registry=registry, dbs=dbs, dt=dt, replay=replay)

