"""Scenario files: JSON documents describing a full experiment.

Complex entries are two-element [re, im] arrays; operators may also be given
by name (pauli_x, pauli_y, pauli_z, {"identity": n}, {"zero": n},
{"diag": [...]}, {"kron": [a, b]}).  Models are either explicit
(h_system / h_apparatus / h_coupling) or generated ({"family": ..., "seed":
..., "eta": ...}).  The document carries a versioned "schema" field.

render_scenario produces a canonical explicit form; parse(render(s)) yields
the same scenario.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from .linalg import DensityOperator, HermitianOperator, InvariantViolationError
from .model import BipartiteModel, Preparation, random_model
from .measurement import Calibration, PointerObservable
from .scenarios import Scenario, Schedule

SCHEMA_VERSION = 1

PAULI = {
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class ScenarioFormatError(ValueError):
    """A scenario document failed to parse or validate."""


def _parse_matrix(spec, what: str) -> np.ndarray:
    if isinstance(spec, str):
        if spec in PAULI:
            return PAULI[spec].copy()
        raise ScenarioFormatError(f"{what}: unknown operator name {spec!r}")
    if isinstance(spec, dict):
        if "identity" in spec:
            return np.eye(int(spec["identity"]), dtype=complex)
        if "zero" in spec:
            n = int(spec["zero"])
            return np.zeros((n, n), dtype=complex)
        if "diag" in spec:
            return np.diag(np.array(spec["diag"], dtype=float)).astype(complex)
        if "kron" in spec:
            a, b = spec["kron"]
            return np.kron(_parse_matrix(a, what), _parse_matrix(b, what))
        raise ScenarioFormatError(f"{what}: unknown operator spec {sorted(spec)}")
    try:
        arr = np.array(spec, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{what}: bad matrix literal: {exc}") from exc
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
    try:
        d_s, d_m = (int(x) for x in doc["dims"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"model.dims: {exc}") from exc
    try:
        eta = None if doc.get("eta") is None else float(doc["eta"])
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"model.eta: {exc}") from exc
    if "family" in doc:
        try:
            seed = int(doc.get("seed", 0))
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
        try:
            i, lam = int(doc["system_index"]), int(doc["apparatus_index"])
        except (TypeError, ValueError) as exc:
            raise ScenarioFormatError(f"preparation: {exc}") from exc
        if not (0 <= i < model.d_system and 0 <= lam < model.d_apparatus):
            raise ScenarioFormatError(
                f"preparation indices ({i}, {lam}) out of range for dims "
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


def parse_scenario(doc: dict, name: Optional[str] = None) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be an object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA_VERSION}"
        )
    for key in ("model", "preparation", "schedule"):
        if key not in doc:
            raise ScenarioFormatError(f"{key!r} section missing")
    model, eta = _parse_model(doc["model"])
    prep = _parse_preparation(doc["preparation"], model)
    sched_doc = doc["schedule"]
    try:
        schedule = Schedule(
            tau=float(sched_doc["tau"]),
            delta_tau=float(sched_doc["delta_tau"]),
            n_repeats=int(sched_doc["n_repeats"]),
            n_trials=int(sched_doc["n_trials"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"schedule: {exc}") from exc
    pointer = None
    if doc.get("pointer") is not None:
        pointer = PointerObservable.from_operator(
            _hermitian(doc["pointer"], "pointer")
        )
        if pointer.dim != model.d_apparatus:
            raise ScenarioFormatError(
                f"pointer: dimension {pointer.dim}, expected d_M = {model.d_apparatus}"
            )
    calibration = None
    cal_doc = doc.get("calibration")
    if cal_doc is not None:
        if pointer is None:
            pointer = PointerObservable.from_operator(model.h_apparatus)
        try:
            calibration = Calibration(
                pointer_values=pointer.values,
                table=np.array(cal_doc["table"], dtype=float),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioFormatError(f"calibration: {exc}") from exc
        if calibration.table.shape[0] != model.d_system:
            raise ScenarioFormatError(
                f"calibration: table has {calibration.table.shape[0]} rows, "
                f"expected d_S = {model.d_system}"
            )
    try:
        seed = int(doc.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"seed: {exc}") from exc
    if seed < 0:
        raise ScenarioFormatError(f"seed {seed} is negative")
    return Scenario.build(
        name=name or doc.get("name", "scenario"),
        model=model,
        preparation=prep,
        schedule=schedule,
        pointer=pointer,
        calibration=calibration,
        seed=seed,
        eta=eta,
    )


def render_scenario(s: Scenario) -> dict:
    """Canonical explicit document for a scenario (matrices as [re, im])."""
    return {
        "schema": SCHEMA_VERSION,
        "name": s.name,
        "model": {
            "dims": [s.model.d_system, s.model.d_apparatus],
            "h_system": _render_matrix(s.model.h_system.matrix),
            "h_apparatus": _render_matrix(s.model.h_apparatus.matrix),
            "h_coupling": _render_matrix(s.model.h_coupling.matrix),
            **({} if s.eta is None else {"eta": s.eta}),
        },
        "preparation": (
            {
                "system_index": s.preparation.system_index,
                "apparatus_index": s.preparation.apparatus_index,
            }
            if s.preparation.is_indexed
            else {
                "rho": _render_matrix(s.preparation.rho_system.matrix),
                "mu": _render_matrix(s.preparation.mu_apparatus.matrix),
            }
        ),
        "pointer": _render_matrix(s.pointer.operator.matrix),
        "schedule": {
            "tau": s.schedule.tau,
            "delta_tau": s.schedule.delta_tau,
            "n_repeats": s.schedule.n_repeats,
            "n_trials": s.schedule.n_trials,
        },
        "calibration": (
            None
            if s.calibration.table is None
            else {"table": [[float(c) for c in row] for row in s.calibration.table]}
        ),
        "seed": s.seed,
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
    try:
        return parse_scenario(doc)
    except ScenarioFormatError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


def bundled_scenario_path(name: str) -> Path:
    """Path to a scenario file shipped with the package (e.g. 'qubit-qnd')."""
    return Path(__file__).parent / "data" / f"{name}.json"
