"""JSON wire formats.

Complex matrices serialize as nested [re, im] pairs.  All writers sort
keys so identical inputs give identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .moments import MomentComponents, component_classes
from .states import BlockDiagonalState, ManifoldState
from .tomography import (
    ManifoldReconstruction,
    MeasurementRecord,
    MeasurementSetting,
    ReconstructionResult,
)
from .fock import Direction

REPR_BLOCK_POINTS = 1 << 16  # a default 181x361 mesh is one block; at most about 5 MB of strings


def _complex_pairs(values) -> list:
    """Nested lists of the same shape, each complex entry as [re, im]."""
    arr = np.asarray(values, dtype=complex)
    return np.stack((arr.real, arr.imag), -1).tolist()


def _typed(value, kind, message: str):
    # bool is a subclass of int, but a JSON true is no number
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{message}, got {value!r}")
    return value


def _complex_back(pairs, where: str, ndim: int) -> np.ndarray:
    """Complex vector (ndim 2) or matrix (ndim 3) from nested [re, im] pairs of JSON numbers."""
    values = np.array(pairs, dtype=object)
    if values.ndim != ndim or values.shape[-1] != 2:
        raise ValueError(f"{where} must be {'a list' if ndim == 2 else 'rows'} of [re, im] pairs")
    message = f"{where} must hold [re, im] pairs of numbers"
    for value in values.flat:
        _typed(value, (int, float), message)
    return values.astype(float).view(complex)[..., 0]


def operator_to_json(operator, n_photons: int) -> dict:
    return {"N": int(n_photons), "rows": _complex_pairs(operator)}


def operator_from_json(payload) -> tuple[np.ndarray, int]:
    return _complex_back(payload["rows"], "operator field 'rows'", 3), int(payload["N"])


def _block_to_json(n_photons: int, probability: float, state: ManifoldState) -> dict:
    block = {"N": int(n_photons), "pN": float(probability)}
    if state.is_pure:
        block["vector"] = _complex_pairs(state.amplitudes)
    else:
        block["matrix"] = _complex_pairs(state.matrix)
    return block


def state_to_json(state, family: str | None = None, params: dict | None = None) -> dict:
    """Serialize any supported state as its block decomposition.

    family/params are descriptive metadata echoed back to the reader.
    """
    from .states import as_block_diagonal

    block = as_block_diagonal(state)
    return {
        "type": family or "custom",
        "params": params or {},
        "truncation_deficit": block.truncation_deficit,
        "blocks": [_block_to_json(n, p, s) for n, p, s in block.blocks],
    }


def _field(payload, key: str, where: str):
    if not isinstance(payload, dict) or key not in payload:
        raise ValueError(f"{where} has no {key!r} field")
    return payload[key]


def _number_field(payload, key: str, where: str, kind, noun: str):
    return _typed(_field(payload, key, where), kind, f"{where} field {key!r} must be {noun}")


def state_from_json(payload) -> BlockDiagonalState:
    """Read a state_to_json payload; a malformed one raises ValueError."""
    blocks = []
    try:
        for i, entry in enumerate(_field(payload, "blocks", "state")):
            where = f"state block {i}"
            n = _number_field(entry, "N", where, int, "an integer")
            probability = float(_number_field(entry, "pN", where, (int, float), "a number"))
            if "vector" in entry:
                state = ManifoldState.pure(n, _complex_back(entry["vector"], f"{where} field 'vector'", 2))
            elif "matrix" in entry:
                state = ManifoldState.mixed(n, _complex_back(entry["matrix"], f"{where} field 'matrix'", 3))
            else:
                raise ValueError(f"{where} has neither a 'vector' nor a 'matrix' field")
            blocks.append((n, probability, state))
        deficit = 0.0
        if "truncation_deficit" in payload:
            deficit = float(_number_field(payload, "truncation_deficit", "state", (int, float), "a number"))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed state: {exc}") from exc
    return BlockDiagonalState(tuple(blocks), truncation_deficit=deficit)


def components_to_json(components: MomentComponents) -> dict:
    return {
        "order": components.order,
        "N": components.n_photons,
        "values": {f"{k},{l}": components.values[(k, l)] for k, l in component_classes(components.order)},
    }


def record_to_json(record: MeasurementRecord) -> dict:
    d = record.setting.direction
    return {
        "direction": [d.x, d.y, d.z],
        "shots": record.setting.shots,
        "seed": record.setting.seed,
        "counts": [
            {"N": n, "s": s, "count": c}
            for (n, s), c in sorted(record.counts.items())
        ],
    }


def record_from_json(payload) -> MeasurementRecord:
    """Read a record_to_json payload; a field of the wrong type or a repeated
    outcome raises ValueError."""
    setting = MeasurementSetting(
        Direction.from_vector(_field(payload, "direction", "record")),
        *(_number_field(payload, key, "record", int, "an integer") for key in ("shots", "seed")),
    )
    counts = {}
    for i, entry in enumerate(_field(payload, "counts", "record")):
        n, s, c = (_number_field(entry, key, f"record count {i}", int, "an integer") for key in ("N", "s", "count"))
        if (n, s) in counts:
            raise ValueError(f"record count {i} repeats the outcome (N, s) = ({n}, {s})")
        counts[(n, s)] = c
    return MeasurementRecord(setting, counts)


def manifold_reconstruction_to_json(rec: ManifoldReconstruction) -> dict:
    return {
        "N": rec.n_photons,
        "pN": rec.probability,
        "pN_error": rec.probability_error,
        "moment_components": {str(r): components_to_json(c) for r, c in rec.components.items()},
        "rho": _complex_pairs(rec.state.density()),
        "diagnostics": {
            "condition_number": rec.reconstruction.condition_number,
            "projection_distance": rec.reconstruction.projection_distance,
            "residual": rec.reconstruction.lstsq_residual,
            "per_order": {str(r): {"residual": v} for r, v in rec.residuals.items()},
        },
    }


def result_to_json(result: ReconstructionResult, include_records: bool = False) -> dict:
    payload = {
        "shots": result.shots,
        "seed": result.seed,
        "manifolds": [manifold_reconstruction_to_json(rec) for _, rec in sorted(result.manifolds.items())],
        "skipped": {str(n): reason for n, reason in sorted(result.skipped.items())},
    }
    if include_records:
        payload["records"] = [record_to_json(r) for r in result.records]
    return payload


def float_reprs(values):
    """Rows of repr(value), the text json.dumps gives each float, for a 2-D nested list.

    A non-finite value raises json's ValueError before any row is made.  Points
    are grouped by bit pattern, which keeps 0.0 and -0.0 apart, and each distinct
    pattern is formatted once per block of REPR_BLOCK_POINTS points; the block
    bounds how many strings are held at once.
    """
    grid = np.array(values, dtype=np.float64)
    if not np.isfinite(grid).all():
        raise ValueError("Out of range float values are not JSON compliant")
    bits = grid.view(np.uint64)
    step = max(1, REPR_BLOCK_POINTS // bits.shape[1])

    def rows():
        for start in range(0, len(bits), step):
            distinct, inverse = np.unique(bits[start : start + step], return_inverse=True)
            texts = np.fromiter(map(float.__repr__, distinct.view(np.float64)), dtype=object, count=distinct.size)
            for row in inverse.reshape(-1, bits.shape[1]):
                yield texts[row].tolist()

    return rows()


def dumps(payload) -> str:
    """Canonical byte-stable JSON encoding."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
