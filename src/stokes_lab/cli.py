"""Command-line front end: state generation, profile meshes, tomography, verification.

All subcommands are deterministic given their flags and seeds; identical
invocations write identical bytes.  A .csv or .json --out path picks the
format; any other path, or stdout, gets CSV from factorials and JSON from the
rest.  Every failure of a parsed command ends in one "error: ..." line on
stderr and exit code 1; a flag argparse cannot parse gets argparse's usage
and error lines and exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import checks, factorials, serialize, states
from .errors import StokesLabError
from .moments import averaged_components
from .states import as_block_diagonal
from .tomography import run_tomography

DEFAULT_MESH = (181, 361)
MAX_MESH_POINTS = 4_000_000  # 61 times the default mesh; 2000x2000 writes about 75 MB of JSON


def _reject_constant(name: str):
    # json.load reads NaN, Infinity and -Infinity unless told otherwise
    raise ValueError(f"state file holds the non-finite number {name}")


def _unique_keys(pairs) -> dict:
    # json.load keeps the last of repeated keys unless told otherwise
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"state file repeats the key {key!r}")
        obj[key] = value
    return obj


def _convert(kind, value, message: str):
    """kind(value), or ValueError(message) when value does not read as kind."""
    try:
        return kind(value)
    except ValueError:
        raise ValueError(message) from None


def _parse_state_spec(spec: str):
    """A state spec is either a JSON file path or family:key=value,...; returns the block state."""
    if ":" not in spec or spec.endswith(".json"):
        with open(spec, "r", encoding="utf-8") as handle:
            payload = json.load(handle, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
        return serialize.state_from_json(payload)
    family, _, raw = spec.partition(":")
    params = {}
    if raw:
        for item in raw.split(","):
            key, _, value = item.partition("=")
            if not _:
                raise ValueError(f"malformed parameter {item!r} in state spec")
            key = key.strip()
            if key in params:
                raise ValueError(f"parameter {key} appears twice in state spec")
            params[key] = value
    return _build_family(family.strip(), params)[0]


# family -> (constructor, its parameters in call order with their defaults);
# a default of None marks a required parameter.  The truncation defaults keep
# the top manifold within fock.DEFAULT_MANIFOLD_CAP.
_FAMILIES = {
    "noon": (states.noon, {"n": None}),
    "su2": (states.su2_coherent, {"n": None, "theta": 0.0, "phi": 0.0}),
    "twinfock": (states.twin_fock, {"m": None}),
    "coherent": (states.two_mode_coherent, {"nbar": None, "nmax": 32}),
    "tmsv": (states.tmsv, {"nbar": None, "mmax": 16}),
    "unpolarized": (states.unpolarized_two_photon, {"a": None, "theta": 0.0}),
}
_INTEGER_PARAMS = {"n", "m", "nmax", "mmax"}


def _build_family(family: str, params: dict) -> tuple:
    """Check a family's parameters by name, convert each to its declared type, build the state.

    Returns (block state, the converted parameters).
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown state family {family!r}")
    build, defaults = _FAMILIES[family]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"state family {family!r} takes no parameter {', '.join(unknown)}")
    values = {}
    for key, default in defaults.items():
        value = params.get(key, default)
        if value is None:
            raise ValueError(f"state family {family!r} needs the parameter {key}")
        kind, noun = (int, "an integer") if key in _INTEGER_PARAMS else (float, "a number")
        values[key] = _convert(kind, value, f"parameter {key} must be {noun}, got {value!r}")
    return as_block_diagonal(build(*values.values())), values


def _writes_csv(out_path: str | None, csv_default: bool = False) -> bool:
    """A .csv or .json out_path picks the format; any other path, and stdout, get the default."""
    if out_path is not None and out_path.endswith((".csv", ".json")):
        return out_path.endswith(".csv")
    return csv_default


def _write(out_path: str | None, chunks) -> None:
    """Write the text chunks to out_path, or to stdout when it is None."""
    if out_path is None:
        sys.stdout.writelines(chunks)
        return
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.writelines(chunks)


def _emit(out_path: str | None, payload, csv_rows=None, csv_default: bool = False) -> None:
    """Write payload as JSON, or csv_rows (header first) as CSV, to out_path or stdout.

    csv_rows is read only when CSV is written; None marks a JSON-only payload.
    """
    if not _writes_csv(out_path, csv_default):
        text = serialize.dumps(payload) + "\n"
    elif csv_rows is None:
        raise ValueError("this payload is JSON-only; use a .json path")
    else:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(csv_rows)
        text = buffer.getvalue()
    _write(out_path, (text,))


def _cmd_state(args) -> int:
    params = {key: getattr(args, key) for key in _FAMILIES[args.family][1]}
    state, params = _build_family(args.family, params)
    _emit(args.out, serialize.state_to_json(state, family=args.family, params=params))
    return 0


def _profile_mesh(state, order: int, mesh_shape) -> tuple:
    """The order-r direction moment on a theta x phi mesh in degrees.

    x^k y^l z^m = sin^(k+l)(theta) cos^m(theta) . cos^k(phi) sin^l(phi), so the
    mesh is one product A @ B over the (k, l) component classes, with A built
    from powers of the theta axis and B from powers of the phi axis.
    """
    n_theta, n_phi = mesh_shape
    comp = averaged_components(state, order)
    theta_deg = [180.0 * i / (n_theta - 1) for i in range(n_theta)]
    phi_deg = [360.0 * j / (n_phi - 1) for j in range(n_phi)]
    theta, phi = np.radians(theta_deg), np.radians(phi_deg)
    exponents = np.arange(order + 1)[:, None]
    sin_t, cos_t = np.sin(theta) ** exponents, np.cos(theta) ** exponents
    cos_p, sin_p = np.cos(phi) ** exponents, np.sin(phi) ** exponents
    ks, ls = np.array(list(comp.values), dtype=int).T
    coeffs = np.fromiter(comp.values.values(), dtype=float)
    a = (sin_t[ks + ls] * cos_t[order - ks - ls]).T
    b = coeffs[:, None] * cos_p[ks] * sin_p[ls]
    return theta_deg, phi_deg, (a @ b).tolist()


def _mesh_text(theta, phi, rows, as_csv: bool):
    """The profile's CSV or JSON text, in pieces, from the repr strings of its axes and values.

    The JSON is the bytes serialize.dumps gives the payload {"theta_deg",
    "phi_deg", "values"}, plus a newline.
    """
    if as_csv:
        yield "theta_deg,phi_deg,value\n"
        for t, row in zip(theta, rows):
            yield "".join([f"{t},{p},{v}\n" for p, v in zip(phi, row)])
        return
    yield f'{{"phi_deg":[{",".join(phi)}],"theta_deg":[{",".join(theta)}],"values":['
    separator = ""
    for row in rows:
        yield f'{separator}[{",".join(row)}]'
        separator = ","
    yield "]}\n"


def _cmd_profile(args) -> int:
    state = _parse_state_spec(args.state)
    shape = DEFAULT_MESH
    if args.mesh:
        message = f"mesh must look like 181x361, got {args.mesh!r}"
        shape = tuple(_convert(int, part, message) for part in args.mesh.lower().split("x"))
        if len(shape) != 2:
            raise ValueError(message)
        if min(shape) < 2:
            raise ValueError("mesh needs at least two points per axis")
        if shape[0] * shape[1] > MAX_MESH_POINTS:
            raise ValueError(f"mesh {shape[0]}x{shape[1]} has more than MAX_MESH_POINTS = {MAX_MESH_POINTS} points")
    theta_deg, phi_deg, values = _profile_mesh(state, args.order, shape)
    (theta,) = serialize.float_reprs([theta_deg])
    (phi,) = serialize.float_reprs([phi_deg])
    rows = serialize.float_reprs(values)
    del values  # rows holds the mesh as one float64 array; free the nested lists before formatting
    _write(args.out, _mesh_text(theta, phi, rows, _writes_csv(args.out)))
    return 0


def _cmd_tomography(args) -> int:
    state = _parse_state_spec(args.state)
    message = f"shots must be a positive integer or 'inf', got {args.shots!r}"
    shots = None if args.shots in (None, "inf") else _convert(int, args.shots, message)
    result = run_tomography(state, shots=shots, seed=args.seed, max_order=args.order)
    _emit(args.out, serialize.result_to_json(result, include_records=args.records))
    if result.skipped:
        sys.stderr.write(f"skipped manifolds: {result.skipped}\n")
    return 0


def _cmd_verify(args) -> int:
    results = checks.run_suite(args.suite)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"[{status}] {r.suite}/{r.name}: {r.detail}\n")
        failed += 0 if r.passed else 1
    return 0 if failed == 0 else 1


def _cmd_factorials(args) -> int:
    header = ("kind", "n", "k", "value")
    table = factorials.CentralFactorialTable(args.max_n)
    rows = [(kind, n, k, str(value)) for kind, n, k, value in table.rows()]
    _emit(args.out, [dict(zip(header, row)) for row in rows], [header, *rows], csv_default=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokes-lab",
        description="Polarization moments and photon-resolved tomography of two-mode states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    state = sub.add_parser("state", help="serialize a family state")
    state_sub = state.add_subparsers(dest="family", required=True)
    for family, (_, defaults) in _FAMILIES.items():
        family_p = state_sub.add_parser(family)
        for key, default in defaults.items():
            family_p.add_argument(f"--{key}", default=default, required=default is None)
        family_p.add_argument("--out", default=None)

    profile = sub.add_parser("profile", help="export a direction-moment mesh")
    profile.add_argument("--state", required=True, help="JSON file or family:key=value,...")
    profile.add_argument("--order", type=int, required=True)
    profile.add_argument("--mesh", default=None, help="THETAxPHI grid, default 181x361")
    profile.add_argument("--out", default=None)

    tomo = sub.add_parser("tomography", help="run the reconstruction pipeline")
    tomo.add_argument("--state", required=True)
    tomo.add_argument("--shots", default=None, help="shot count per setting, or 'inf' for exact moments")
    tomo.add_argument("--seed", type=int, default=0)
    tomo.add_argument("--order", type=int, default=None, help="cap the moment order")
    tomo.add_argument("--records", action="store_true", help="include raw measurement records")
    tomo.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=sorted(checks.SUITES))

    fact = sub.add_parser("factorials", help="dump the central factorial tables")
    fact.add_argument("--max-n", type=int, default=12)
    fact.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "state": _cmd_state,
    "profile": _cmd_profile,
    "tomography": _cmd_tomography,
    "verify": _cmd_verify,
    "factorials": _cmd_factorials,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (StokesLabError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
