"""Scenario files: JSON documents describing a full experiment.

Complex entries are two-element [re, im] arrays; operators may also be given
by name (pauli_x, pauli_y, pauli_z, {"identity": n}, {"zero": n},
{"diag": [...]}, {"kron": [a, b]}).  Models are either explicit
(h_system / h_apparatus / h_coupling) or generated ({"family": ..., "seed":
..., "eta": ...}), each operator Hermitian to within EPS_HERM * ||M||_F.
An optional calibration {"table": [[...], ...]} gives each pointer group's
reading per system level.  The document carries a versioned "schema" field.

render_scenario produces a canonical explicit form, the table and a rho/mu
preparation included; parse(render(s)) yields the same scenario.
"""

from __future__ import annotations

import json
import operator
from pathlib import Path
from typing import Optional

import numpy as np

from .linalg import DensityOperator, HermitianOperator, InvariantViolationError
from .model import BipartiteModel, Preparation, random_model, shown
from .measurement import PointerObservable
from .scenarios import MAX_DIM, Scenario, Schedule

SCHEMA_VERSION = 1

PAULI = {
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class ScenarioFormatError(ValueError):
    """A scenario document failed to parse or validate."""


def _int(value, what: str) -> int:
    """value as an int when it is one; anything else (a bool, a float such as
    2.5, NaN or an infinity, a string) is a ScenarioFormatError that names what."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ScenarioFormatError(f"{what}: expected an integer, got {shown(value)}")


def _real(value, what: str) -> float:
    """value as a float when it is a JSON number (an int or a float, NaN and
    the infinities included); anything else (a bool, a string such as "1.5",
    an int beyond the float range) is a ScenarioFormatError that names what."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ScenarioFormatError(f"{what}: an integer beyond the float range") from None
    raise ScenarioFormatError(f"{what}: expected a number, got {shown(value)}")


def _reals(nest, what: str) -> np.ndarray:
    """A number or a nest of lists as a float array, each element by the
    _real rule; a nest numpy cannot shape is a ScenarioFormatError too."""
    try:
        cells = np.array(nest, dtype=object)
    except ValueError as exc:
        raise ScenarioFormatError(f"{what}: {exc}") from exc
    return np.array([_real(v, what) for v in cells.ravel()], float).reshape(cells.shape)


def _dim(value, what: str) -> int:
    """_int(value, what), also refused when numpy could not size an n x n matrix."""
    n = _int(value, what)
    if n > MAX_DIM:
        raise ScenarioFormatError(f"{what}: {shown(n)} exceeds the largest dimension {MAX_DIM}")
    return n


def _parse_matrix(spec, what: str) -> np.ndarray:
    if isinstance(spec, str):
        if spec in PAULI:
            return PAULI[spec].copy()
        raise ScenarioFormatError(f"{what}: unknown operator name {shown(spec)}")
    if isinstance(spec, dict):
        for key in ("identity", "zero"):
            if key in spec:
                n = _dim(spec[key], f"{what}.{key}")
                if n < 1:
                    raise ScenarioFormatError(f"{what}.{key}: size must be positive, got {n}")
                return np.eye(n, dtype=complex) if key == "identity" else np.zeros((n, n), complex)
        if "diag" in spec:
            diag = _reals(spec["diag"], f"{what}.diag")
            if diag.ndim != 1:
                raise ScenarioFormatError(f"{what}.diag must be a list of numbers")
            if diag.size == 0:
                raise ScenarioFormatError(f"{what}.diag is empty")
            return np.diag(diag).astype(complex)
        if "kron" in spec:
            pair = spec["kron"]
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ScenarioFormatError(f"{what}.kron must be [a, b], got {shown(pair)}")
            factors = [_parse_matrix(f, what) for f in pair]
            for k, f in enumerate(factors):  # a non-finite factor would warn in np.kron
                if not np.isfinite(f).all():
                    raise ScenarioFormatError(f"{what}.kron: factor {k} is not finite")
            return np.kron(*factors)
        raise ScenarioFormatError(f"{what}: unknown operator spec {shown(sorted(spec))}")
    arr = _reals(spec, what)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ScenarioFormatError(
            f"{what}: matrix literal must be a square nest of [re, im] pairs"
        )
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _render_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _hermitian(spec, what: str) -> HermitianOperator:
    try:
        return HermitianOperator(_parse_matrix(spec, what))
    except InvariantViolationError as exc:
        raise ScenarioFormatError(f"{what}: {exc}") from exc


def _parse_model(doc: dict) -> tuple[BipartiteModel, Optional[float]]:
    """The model and its eta, which labels an explicit model as well."""
    dims = doc.get("dims")
    if not isinstance(dims, (list, tuple)) or len(dims) != 2:
        raise ScenarioFormatError(f"model.dims must be [dS, dM], got {shown(dims)}")
    d_s, d_m = (_dim(d, "model.dims") for d in dims)
    _dim(d_s * d_m, "model.dims: the joint dimension")
    eta = None if doc.get("eta") is None else _real(doc["eta"], "model.eta")
    if "family" in doc:
        seed = _int(doc.get("seed", 0), "model.seed")
        try:
            return random_model((d_s, d_m), doc["family"], seed, eta=eta), eta
        except (TypeError, ValueError) as exc:
            raise ScenarioFormatError(f"model: {exc}") from exc
    for key in ("h_system", "h_apparatus", "h_coupling"):
        if key not in doc:
            raise ScenarioFormatError(f"model.{key} missing")
    try:
        return BipartiteModel(
            d_system=d_s,
            d_apparatus=d_m,
            h_system=_hermitian(doc["h_system"], "model.h_system"),
            h_apparatus=_hermitian(doc["h_apparatus"], "model.h_apparatus"),
            h_coupling=_hermitian(doc["h_coupling"], "model.h_coupling"),
        ), eta
    except ScenarioFormatError:
        raise  # already names the operator
    except ValueError as exc:
        raise ScenarioFormatError(f"model: {exc}") from exc


def _parse_preparation(doc: dict, model: BipartiteModel) -> Preparation:
    if "system_index" in doc or "apparatus_index" in doc:
        for key in ("system_index", "apparatus_index"):
            if key not in doc:
                raise ScenarioFormatError(f"preparation.{key} missing")
        i = _int(doc["system_index"], "preparation.system_index")
        lam = _int(doc["apparatus_index"], "preparation.apparatus_index")
        if not (0 <= i < model.d_system and 0 <= lam < model.d_apparatus):
            raise ScenarioFormatError(
                f"preparation indices ({shown(i)}, {shown(lam)}) out of range for dims "
                f"({model.d_system}, {model.d_apparatus})"
            )
        return Preparation.eigenbasis(i, lam)
    if "rho" in doc and "mu" in doc:
        try:
            rho = DensityOperator(_parse_matrix(doc["rho"], "preparation.rho"))
            mu = DensityOperator(_parse_matrix(doc["mu"], "preparation.mu"))
        except InvariantViolationError as exc:
            raise ScenarioFormatError(f"preparation: {exc}") from exc
        return Preparation.general(rho, mu)
    raise ScenarioFormatError(
        "preparation needs system_index/apparatus_index or rho/mu"
    )


def parse_scenario(doc: dict) -> Scenario:
    """A one-point Scenario.  The pointer defaults to h_M, in the model's
    apparatus_basis.
    A calibration table, if given, is checked here: finite, one row per
    system level and one column per distinct pointer value."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be an object")
    if _int(doc.get("schema"), "schema") != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"unsupported schema {shown(doc['schema'])}; expected {SCHEMA_VERSION}"
        )
    for key in ("model", "preparation", "schedule"):
        if not isinstance(doc.get(key), dict):
            raise ScenarioFormatError(f"{key!r} section missing or not an object")
    model, eta = _parse_model(doc["model"])
    prep = _parse_preparation(doc["preparation"], model)
    sched_doc = doc["schedule"]
    try:
        schedule = Schedule(
            tau=_real(sched_doc["tau"], "tau"),
            delta_tau=_real(sched_doc["delta_tau"], "delta_tau"),
            n_repeats=_int(sched_doc["n_repeats"], "n_repeats"),
            n_trials=_int(sched_doc["n_trials"], "n_trials"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"schedule: {exc}") from exc
    if doc.get("pointer") is None:
        pointer = PointerObservable(model.h_apparatus, model.apparatus_basis)
    else:
        pointer = PointerObservable.from_operator(_hermitian(doc["pointer"], "pointer"))
        if pointer.dim != model.d_apparatus:
            raise ScenarioFormatError(
                f"pointer: dimension {pointer.dim}, expected d_M = {model.d_apparatus}"
            )
    table = doc.get("calibration")
    if table is not None:
        try:
            table = _reals(table["table"], "calibration.table")
        except (KeyError, TypeError) as exc:
            raise ScenarioFormatError(f"calibration: {exc}") from exc
        groups = len(pointer.values)
        if table.ndim != 2 or table.shape[1] != groups or not np.isfinite(table).all():
            raise ScenarioFormatError(
                f"calibration: calibration table must be a finite (dS, {groups}) array")
        if table.shape[0] != model.d_system:
            raise ScenarioFormatError(f"calibration: table has {table.shape[0]} rows, "
                                      f"expected d_S = {model.d_system}")
        table.setflags(write=False)
    seed = _int(doc.get("seed", 0), "seed")
    if seed < 0:
        raise ScenarioFormatError(f"seed {shown(seed)} is negative")
    name = doc.get("name", "scenario")
    if not isinstance(name, str):
        raise ScenarioFormatError(f"name: expected a string, got {shown(name)}")
    return Scenario((name,), model, prep, pointer, schedule, table, (seed,), (eta,))


def render_scenario(s: Scenario) -> dict:
    """Canonical explicit document for a one-point scenario (matrices as [re, im])."""
    return {
        "schema": SCHEMA_VERSION,
        "name": s.names[0],
        "model": {
            "dims": [s.model.d_system, s.model.d_apparatus],
            "h_system": _render_matrix(s.model.h_system.matrix),
            "h_apparatus": _render_matrix(s.model.h_apparatus.matrix),
            "h_coupling": _render_matrix(s.model.h_coupling.matrix),
            **({} if s.etas[0] is None else {"eta": s.etas[0]}),
        },
        "preparation": ({"system_index": s.preparation.system_index,
                         "apparatus_index": s.preparation.apparatus_index}
                        if s.preparation.is_indexed else
                        {"rho": _render_matrix(s.preparation.rho_system.matrix),
                         "mu": _render_matrix(s.preparation.mu_apparatus.matrix)}),
        "pointer": _render_matrix(s.pointer.operator.matrix),
        "schedule": dict(vars(s.schedule)),  # tau, delta_tau, n_repeats, n_trials
        "calibration": None if s.table is None else {"table": s.table.tolist()},
        "seed": s.seeds[0],
    }


def load_scenario_file(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # a long integer, a deep nest
        raise ScenarioFormatError(f"{path}: {exc}") from exc
    try:
        return parse_scenario(doc)
    except ScenarioFormatError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


def bundled_scenario_path(name: str) -> Path:
    """Path to a scenario file shipped with the package (e.g. 'qubit-qnd')."""
    return Path(__file__).parent / "data" / f"{name}.json"
