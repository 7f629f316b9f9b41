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
entry records the run's ``success`` (a boolean), ``t_fail`` (null on a
success, else null or an integer >= 0), ``T``, ``rows`` and ``D`` (null for
a run without sensors). A run with neither sensors nor a non-zero count
stores one all-zero counts row, so a manifest cannot ask for more than its
files hold. A database or recording is read as a study of one directory:
every manifest, the study's first, is checked, these rules included, before
any array is read; then each file is read once and each run built once. A
file is never unpickled, and one whose dtype, ndim or size disagrees with
its manifest is a :class:`StoreError` naming it. Counts go straight into
the row-sparse :class:`Fingerprint`, so loading builds no F x T matrix, and
they are checked per batch, not per run: the runs of one T, across every
file, at once. A bad index is a StoreError naming the file, a bad count a
ValidationError naming it, each for the first bad run of the first failing
batch. Every counts file is checked before any sensors file is read.

Studies and ``mom`` models are written at version 1, ``fpf`` models at version
2: ``support``, ``F``, ``T`` and the |support| x T ``mean`` and ``var``. Every
file is self-describing through ``format``, ``version`` and, for models,
``kind`` fields; another version (a version-1 or -2 database, a version-1
``fpf`` model) is a :class:`VersionError`, and loading validates shapes and
contents rather than trusting them. Every numeric cell (fpf ``mean`` and
``var``; mom ``params``, ``norm_lo``, ``norm_hi``, ``loss_history`` and
``error_stats``) is a JSON number. A mom file names each gate's parameters
(``upd_*``, ``rst_*``, ``cand_*``), which loading stacks into
:class:`MomModel`'s ``gate_w``, ``gate_u`` and ``gate_b`` and saving splits
again. It must carry ``error_stats``, the object of ``mu`` and ``sigma`` that
``train-mom`` fits, since a mom model is saved and loaded only as a
:class:`MomBundle`. A study's ``dbs`` and ``replay`` entries are relative paths
inside its directory. Every JSON document goes through :func:`_write_json` and
:func:`_read_json`, and every field read from one, here and in ``harness`` and
``reports``, through :func:`_field`: by its JSON type, not coerced (a bool is
not a number), every nested object and list as such before its fields or items.
A wrong or missing field is named by its key, here in a :class:`StoreError`
that names the file too.
"""
from __future__ import annotations

import itertools
import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import (ExperienceDb, Fingerprint, FunctionRegistry, Observation,
                   SensorSeries, SkillId, validate_observation)
from .errors import (ConfigError, ExecutorError, FunctionIndexError, KindError, StoreError,
                     ValidationError, VersionError)
from .fpf import FpfModel
from .mom import ErrorStats, MomBundle, MomModel

_DB_FORMAT = "blamebox-db"
_MODEL_FORMAT = "blamebox-model"
_STUDY_FORMAT = "blamebox-study"
_VERSION = 1
_DB_VERSION = 3
_MODEL_VERSIONS = {"fpf": 2, "mom": _VERSION}
# the gates of a mom file's parameter names, in MomModel's stacking order
_MOM_GATES = ("upd", "rst", "cand")
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
    """Report a ValidationError raised inside the block as ``error``, and a
    ConfigError as one, with ``path`` prefixed to its message. A bad function
    index is a malformed file, not bad data: it is always a StoreError."""
    try:
        yield
    except (ValidationError, ConfigError) as exc:
        raise (StoreError if isinstance(exc, FunctionIndexError)
               else error if isinstance(exc, ValidationError) else ConfigError)(
            f"{path}: {exc}") from exc


# what np.save writes before a 1-d little-endian float64 array's data: the
# magic, version 1.0, the header's length in two bytes, and the header, padded
# to align the data to 64 bytes (np.load refuses a header past 10,000 bytes)
_NPY_HEADER = re.compile(rb"\x93NUMPY\x01\x00..\{'descr': '<f8', 'fortran_order': False, "
                         rb"'shape': \((0|[1-9][0-9]*),\), \} {0,63}\n", re.DOTALL)


def _load_matrix(path: str) -> np.ndarray:
    """The 1-d float64 array of the ``.npy`` file at ``path``, never unpickled.

    A file as np.save writes one, whose header the pattern above matches and
    whose data holds the values it declares, is read whole and viewed
    read-only. Any other goes to np.load, which reads it or names its fault
    as it always has."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header = _NPY_HEADER.match(raw)
    if (header and header.end() == 10 + int.from_bytes(raw[8:10], "little")
            and len(raw) >= header.end() + 8 * int(header[1])):
        return np.frombuffer(raw, "<f8", int(header[1]), header.end())
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


def _blocks(path: str, shapes: list[tuple[int, int]], manifest_path: str) -> list[np.ndarray]:
    """The ``.npy`` array at ``path`` cut into consecutive row-major blocks
    of the given shapes, which must use up all of it."""
    ends = list(itertools.accumulate((rows * cols for rows, cols in shapes), initial=0))
    flat = _load_matrix(path)
    if flat.size != ends[-1]:
        raise StoreError(f"{path}: holds {flat.size} values, but the blocks that "
                         f"{manifest_path} lists take {ends[-1]}")
    return [flat[a:b].reshape(shape) for shape, a, b in zip(shapes, ends, ends[1:])]


def _float_range(v) -> bool:
    """Whether ``v`` is a JSON number that float() takes: a float (JSON reads
    1e400 as inf) or an integer no larger in magnitude than the largest float
    (an int and a float compare exactly)."""
    return type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max)


# The JSON types that _field reads, each (what a value must be, the test it
# must pass). A bool is neither a JSON integer nor a JSON number, and a whole
# float is not an integer.
_OBJECT = ("an object", lambda v: type(v) is dict)
_LIST = ("a list", lambda v: type(v) is list)
_STRING = ("a string", lambda v: type(v) is str)
_BOOL = ("a boolean", lambda v: type(v) is bool)
_INT = ("an integer", lambda v: type(v) is int)
_NUMBER = ("a JSON number", lambda v: type(v) in (int, float))
_NATURAL = ("an integer >= 0", lambda v: type(v) is int and v >= 0)
_COUNT = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
_STRINGS = ("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v))
_FLOAT = ("a number within float range", _float_range)
_POSITIVE = ("a finite number > 0", lambda v: _float_range(v) and 0 < v < np.inf)
_PROBABILITY = ("a JSON number in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1)


def _shown(value) -> str:
    """``repr(value)`` for an error message, cut to its first 40 characters
    when it is longer, so that a long value keeps the message one short line."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def _field(doc: dict, key, kind: tuple, owner: str = "", error=StoreError, where: str = ""):
    """``doc[key]``, which must be of the JSON type ``kind``; else ``error``,
    worded "<owner>'<name>' must be <want>, found <value>" (<value> cut as
    :func:`_shown` cuts it) or "<owner>'<name>' is missing". <name> is
    ``where`` followed by ``key``, or by ``[key]`` for a list item's index."""
    want, ok = kind
    try:
        value = doc[key]
        if ok(value):
            return value
        problem = f"must be {want}, found {_shown(value)}"
    except KeyError:
        problem = "is missing"
    name = where + key if type(key) is str else f"{where}[{key}]"
    raise error(f"{owner}{name!r} {problem}")


def _objects(doc: dict, key: str, owner: str = "", error=StoreError, where: str = "") -> list:
    """``doc[key]``, a JSON list whose every item is an object, as :func:`_field`
    reads it; a bad item is named by its index."""
    items, name = _field(doc, key, _LIST, owner, error, where), where + key
    return [_field(items, i, _OBJECT, owner, error, name) for i in range(len(items))]


def _numbers(doc: dict, key: str, its: str) -> np.ndarray:
    """``doc[key]``, rectangular nested lists whose every cell is a JSON number
    within float range (a bool or a string is not one), as a float64 array.
    The lists are checked one depth at a time."""
    value = _field(doc, key, _LIST, its)
    level, depth = [value], 0
    while level and all(type(v) is list for v in level):
        lengths = sorted({len(v) for v in level})
        if len(lengths) > 1:
            raise StoreError(f"{its}{key!r} must be rectangular, found lists of lengths "
                             f"{lengths[0]} and {lengths[-1]} at depth {depth}")
        level, depth = [cell for v in level for cell in v], depth + 1
    bad = [v for v in level if not _float_range(v)]
    if bad:
        v = bad[0]
        problem = (f"must be rectangular, found a list beside a number at depth {depth}"
                   if type(v) is list else
                   f"must hold numbers within float range, found {_shown(v)}"
                   if type(v) is int else f"must hold JSON numbers only, found {_shown(v)}")
        raise StoreError(f"{its}{key!r} {problem}")
    return np.array(value, dtype=np.float64)


def _gate_stack(params: dict, part: str, its: str) -> np.ndarray:
    """The gates' ``part`` ("w", "u" or "b") of a mom file's ``params``, stacked."""
    names = [f"{gate}_{part}" for gate in _MOM_GATES]
    arrays = [_numbers(params, name, its) for name in names]
    if len({a.shape for a in arrays}) > 1:
        raise StoreError(f"{its}{', '.join(names)} must share one shape, found "
                         f"{', '.join(str(a.shape) for a in arrays)}")
    return np.stack(arrays)


# ---------------------------------------------------------------------------
# Recorded executions and experience databases share one directory layout.

# the JSON types of a manifest entry's D and, by its success, its t_fail
_SENSED = (_COUNT[0], lambda v: v is None or _COUNT[1](v))
_T_FAIL = {True: ("null on a success", lambda v: v is None),
           False: ("null or an integer >= 0", lambda v: v is None or _NATURAL[1](v))}


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


class _Listing(NamedTuple):
    """A checked database or recording manifest: its directory, its path,
    what it holds and each entry's (T, rows, D, success, t_fail);
    ``registry`` is built from its own functions when it is read alone."""

    path: str
    manifest_path: str
    skill: SkillId
    dt: float
    canonical_T: int
    registry: FunctionRegistry | None
    runs: list


def _listing(path: str, names: list | None = None, listed=None) -> _Listing:
    """The checked manifest of the database or recording directory at ``path``;
    with ``names`` it must list those functions, and with ``listed``, (the
    study manifest listing it, skill, dt), that skill and dt."""
    manifest_path = os.path.join(path, "manifest.json")
    manifest = _read_document(manifest_path, _DB_FORMAT, _DB_VERSION)
    its, entry = f"{manifest_path}: its ", f"{manifest_path}: an entry's "
    registry = None
    with _interpreting(manifest_path):
        # with names given, a list of other values fails the comparison below
        functions = _field(manifest, "functions", _STRINGS if names is None else _LIST, its)
        if names is None:
            with _naming(manifest_path, StoreError):
                registry = FunctionRegistry(functions)
        elif functions != names:
            raise StoreError(f"{manifest_path}: lists other functions than expected")
        # a listed skill is compared with the listing's, which names both files
        skill = manifest.get("skill") if listed else _field(manifest, "skill", _STRING, its)
        dt = float(_field(manifest, "dt", _POSITIVE, its))
        if listed is not None and (skill, dt) != listed[1:]:
            raise StoreError(f"{manifest_path}: holds skill {skill!r} at dt={dt}, but "
                             f"{listed[0]} lists it for skill {listed[1]!r} at dt={listed[2]}")
        canonical_T = _field(manifest, "canonical_T", _NATURAL, its)
        runs = []
        for e in _objects(manifest, "observations", its):
            success = _field(e, "success", _BOOL, entry)
            t_fail = _field(e, "t_fail", _T_FAIL[success], entry)
            D = _field(e, "D", _SENSED, entry)
            # a run without sensors needs a counts row, so values back each T
            runs.append((_field(e, "T", _COUNT, entry),
                         _field(e, "rows", _COUNT if D is None else _NATURAL, entry), D,
                         success, t_fail))
    return _Listing(path, manifest_path, skill, dt, canonical_T, registry, runs)


def _load_runs(listings: list[_Listing], registry: FunctionRegistry,
               dt: float) -> list[list[Observation]]:
    """The runs of each checked listing, all over ``registry`` at ``dt``.

    Each counts file is read once, and each stretch of its consecutive runs
    of one T is copied into its rows of that T's index column and (rows, T)
    values buffer, both sized from the manifests. The runs of each T are
    then checked as one batch, the lengths in the order they first appear;
    a failing batch names the file of its first bad run. Then each sensors
    file is read once and each run built once."""
    counts = [os.path.join(listing.path, "counts.npy") for listing in listings]
    stretches, rows = [], {}   # per file: (T, run sizes, first row); per T: rows
    for listing in listings:
        stretches.append([])
        for T, group in itertools.groupby(listing.runs, key=lambda run: run[0]):
            sizes = [n for _, n, *_ in group]
            stretches[-1].append((T, sizes, rows.get(T, 0)))
            rows[T] = rows.get(T, 0) + sum(sizes)
    blocks = [[(sum(sizes), T + 1) for T, sizes, _ in parts] for parts in stretches]
    for path, listing, shapes in zip(counts, listings, blocks):
        # a file too short for the blocks its manifest lists is named before
        # they size a buffer: reading it raises its fault
        if os.path.getsize(path) < 8 * sum(n * cols for n, cols in shapes):
            _blocks(path, shapes, listing.manifest_path)
    buffers = {T: (np.empty(n), np.empty((n, T))) for T, n in rows.items()}
    for path, listing, parts, shapes in zip(counts, listings, stretches, blocks):
        for (T, _, a), block in zip(parts, _blocks(path, shapes, listing.manifest_path)):
            column, values = buffers[T]
            column[a:a + len(block)], values[a:a + len(block)] = block[:, 0], block[:, 1:]
    fingerprints = {}
    for T, (column, values) in buffers.items():
        pieces = [(path, a, sizes) for path, parts in zip(counts, stretches)
                  for t, sizes, a in parts if t == T]
        try:
            fingerprints[T] = iter(Fingerprint.batch(
                column, values, [n for *_, sizes in pieces for n in sizes], registry.F, dt))
        except ValidationError:
            # the first piece that fails alone holds the batch's first bad run
            for path, a, sizes in pieces:
                with _naming(path):
                    Fingerprint.batch(column[a:a + sum(sizes)], values[a:a + sum(sizes)],
                                      sizes, registry.F, dt)
            raise
    loaded = []
    for path, listing in zip(counts, listings):
        sensors_file = os.path.join(listing.path, "sensors.npy")
        shapes = [(D, T) for T, _, D, *_ in listing.runs if D is not None]
        data = iter(_blocks(sensors_file, shapes, listing.manifest_path) if shapes else ())
        with _naming(sensors_file):
            sensors = [None if D is None else SensorSeries(next(data), dt=dt)
                       for _, _, D, *_ in listing.runs]
        with _naming(path):
            loaded.append([validate_observation(Observation(
                sensors=series, fingerprint=next(fingerprints[T]), success=success,
                skill=listing.skill, t_fail=t_fail), registry)
                for series, (T, _, _, success, t_fail) in zip(sensors, listing.runs)])
    return loaded


def _database(listing: _Listing, records: list[Observation]) -> ExperienceDb:
    """The database of a listing's runs; its ``canonical_T`` must be the one
    the runs give."""
    with _naming(listing.manifest_path):
        db = ExperienceDb(listing.skill, records)
    if db.canonical_T != listing.canonical_T:
        raise StoreError(f"{listing.manifest_path}: canonical_T is "
                         f"{listing.canonical_T}, but its runs give {db.canonical_T}")
    return db


def save_db(db: ExperienceDb, path: str, registry: FunctionRegistry) -> None:
    _save_records(path, db.skill, registry, db.observations,
                  db.observations[0].fingerprint.dt)


def load_db(path: str) -> ExperienceDb:
    """Load and validate an experience database (successful runs only), as a
    study of this one directory."""
    listing = _listing(path)
    return _database(listing, _load_runs([listing], listing.registry, listing.dt)[0])


def save_recorded(records: Sequence[Observation], path: str, skill: SkillId,
                  registry: FunctionRegistry, dt: float) -> None:
    """Persist raw executions (successes and failures) for later replay."""
    _save_records(path, skill, registry, records, dt)


def load_recorded(path: str) -> list[Observation]:
    """Load recorded executions, as a study of this one directory. Their
    ``canonical_T`` is not checked."""
    listing = _listing(path)
    return _load_runs([listing], listing.registry, listing.dt)[0]


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

def save_model(model: FpfModel | MomBundle, path: str) -> None:
    payload: dict = {"format": _MODEL_FORMAT, "version": _VERSION}
    if isinstance(model, FpfModel):
        payload.update(kind="fpf", version=_MODEL_VERSIONS["fpf"], support=model.support.tolist(),
                       F=model.F, T=model.T, n_samples=model.n_samples,
                       var_floor=model.var_floor, mean=model.mean.tolist(), var=model.var.tolist())
    elif isinstance(model, MomBundle):
        mom, stats = model.model, model.error_stats
        payload.update(
            kind="mom",
            params={"enc_w": mom.enc_w.tolist(), "enc_b": mom.enc_b.tolist(),
                    **{f"{gate}_{part}": getattr(mom, f"gate_{part}")[i].tolist()
                       for i, gate in enumerate(_MOM_GATES) for part in "wub"}},
            norm_lo=mom.norm_lo.tolist(),
            norm_hi=mom.norm_hi.tolist(),
            loss_history=list(mom.loss_history),
            error_stats={"mu": stats.mu.tolist(), "sigma": stats.sigma.tolist()},
        )
    else:
        raise StoreError(f"cannot save object of type {type(model).__name__}")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    _write_json(path, payload)


def load_model(path: str, expect: str | None = None):
    """Load a model file; returns FpfModel or MomBundle depending on its kind.

    ``expect`` ("fpf" or "mom") turns a kind mismatch into :class:`KindError`.
    """
    payload = _read_document(path, _MODEL_FORMAT, _MODEL_VERSIONS)
    kind = payload.get("kind")
    if expect is not None and kind != expect:
        raise KindError(f"{path}: holds a {kind!r} model, expected {expect!r}")
    its = f"{path}: its "
    with _interpreting(path, ValidationError, ConfigError):
        if kind == "fpf":
            F, T = (_field(payload, key, _COUNT, its) for key in ("F", "T"))
            support = Fingerprint.check_rows(_field(payload, "support", (
                "a list of integers", lambda v: type(v) is list and all(type(i) is int for i in v)),
                its), F)
            mean, var = _numbers(payload, "mean", its), _numbers(payload, "var", its)
            shape = (support.size, T) if support.size else (0,)   # no rows are written []
            if mean.shape != shape or var.shape != shape:
                raise StoreError(f"{path}: its mean and var must be {support.size} x {T} matrices")
            return FpfModel(support=support, mean=mean.reshape(-1, T), var=var.reshape(-1, T),
                            F=F, n_samples=_field(payload, "n_samples", _COUNT, its),
                            var_floor=float(_field(payload, "var_floor", _POSITIVE, its)))
        if kind == "mom":
            params = _field(payload, "params", _OBJECT, its)
            model = MomModel(**{name: _numbers(params, name, its) for name in ("enc_w", "enc_b")},
                             **{f"gate_{part}": _gate_stack(params, part, its) for part in "wub"},
                             norm_lo=_numbers(payload, "norm_lo", its),
                             norm_hi=_numbers(payload, "norm_hi", its),
                             loss_history=(_numbers(payload, "loss_history", its)
                                           if "loss_history" in payload else ()))
            stats = _field(payload, "error_stats", ("an object (train-mom writes it)", _OBJECT[1]),
                           its)
            return MomBundle(model=model, error_stats=ErrorStats(
                mu=_numbers(stats, "mu", its), sigma=_numbers(stats, "sigma", its)))
    raise KindError(f"{path}: unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# Studies: a directory bundling registry, per-skill databases, and optional
# recorded executions for replay.

@dataclass(eq=False)
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
    """Load a study; every db and replay manifest must hold the study's
    ``dt`` and functions. Every manifest is checked, the study's first, before
    any array is read."""
    manifest_path = os.path.join(path, "manifest.json")
    manifest = _read_document(manifest_path, _STUDY_FORMAT)
    its = f"{manifest_path}: its "
    with _interpreting(manifest_path):
        with _naming(manifest_path, StoreError):
            registry = FunctionRegistry(_field(manifest, "functions", _STRINGS, its))
        dt = float(_field(manifest, "dt", _POSITIVE, its))
        listed, dbs = _field(manifest, "dbs", _OBJECT, its), {}
        for skill in _field(manifest, "skills", _STRINGS, its):
            if skill in dbs:
                raise StoreError(f"{manifest_path}: skill {skill!r} is listed more than once")
            rel = listed.get(skill)
            if rel is None:
                raise StoreError(f"{manifest_path}: no database listed for skill {skill!r}")
            dbs[skill] = _inside(manifest_path, rel)
        recorded = _field(manifest, "replay", _OBJECT, its) if "replay" in manifest else {}
        replay = {skill: _inside(manifest_path, rel) for skill, rel in recorded.items()}
        names = list(registry.names)
        listings = [_listing(directory, names, (manifest_path, skill, dt))
                    for skill, directory in [*dbs.items(), *replay.items()]]
        runs = _load_runs(listings, registry, dt)
        return Study(registry=registry, dt=dt,
                     dbs={skill: _database(listing, records) for skill, listing, records
                          in zip(dbs, listings, runs)},
                     replay=dict(zip(replay, runs[len(dbs):])))
