"""Command-line front end: state generation, profile meshes, tomography, verification.

All subcommands are deterministic given their flags and seeds; identical
invocations write identical bytes.  Output format follows the --out file
extension (.json or .csv); without --out, JSON goes to stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import checks, factorials, serialize, states
from .errors import RankDeficientError, StokesLabError
from .moments import averaged_components
from .states import as_block_diagonal
from .tomography import run_tomography

DEFAULT_MESH = (181, 361)


def _reject_constant(name: str):
    # json.load reads NaN, Infinity and -Infinity unless told otherwise
    raise ValueError(f"state file holds the non-finite number {name}")


def _parse_state_spec(spec: str):
    """A state spec is either a JSON file path or family:key=value,...

    Returns (block_state, family, params).
    """
    if ":" not in spec or spec.endswith(".json"):
        with open(spec, "r", encoding="utf-8") as handle:
            payload = json.load(handle, parse_constant=_reject_constant)
        return serialize.state_from_json(payload), payload.get("type", "custom"), payload.get("params", {})
    family, _, raw = spec.partition(":")
    params = {}
    if raw:
        for item in raw.split(","):
            key, _, value = item.partition("=")
            if not _:
                raise ValueError(f"malformed parameter {item!r} in state spec")
            params[key.strip()] = float(value) if "." in value or "e" in value.lower() else int(value)
    return _build_family(family.strip(), params), family.strip(), params


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


def _build_family(family: str, params: dict):
    """Check a family's parameters by name and type, then build the state."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown state family {family!r}")
    build, defaults = _FAMILIES[family]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"state family {family!r} takes no parameter {', '.join(unknown)}")
    values = []
    for key, default in defaults.items():
        value = params.get(key, default)
        if value is None:
            raise ValueError(f"state family {family!r} needs the parameter {key}")
        if key in _INTEGER_PARAMS and not isinstance(value, int):
            raise ValueError(f"parameter {key} must be an integer, got {value!r}")
        values.append(value if key in _INTEGER_PARAMS else float(value))
    return as_block_diagonal(build(*values))


def _family_from_args(args) -> tuple:
    params = {key: getattr(args, key) for key in _FAMILIES[args.family][1]}
    return _build_family(args.family, params), args.family, params


def _emit(payload, out_path: str | None) -> None:
    text = serialize.dumps(payload)
    if out_path is None:
        sys.stdout.write(text + "\n")
        return
    if out_path.endswith(".csv"):
        raise ValueError("this payload is JSON-only; use a .json path")
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _emit_mesh(mesh, out_path: str | None) -> None:
    theta_deg, phi_deg, values = mesh
    if out_path is not None and out_path.endswith(".csv"):
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["theta_deg", "phi_deg", "value"])
        for i, th in enumerate(theta_deg):
            for j, ph in enumerate(phi_deg):
                writer.writerow([th, ph, repr(values[i][j])])
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(buffer.getvalue())
        return
    payload = {"theta_deg": list(theta_deg), "phi_deg": list(phi_deg), "values": values}
    _emit(payload, out_path)


def _cmd_state(args) -> int:
    state, family, params = _family_from_args(args)
    _emit(serialize.state_to_json(state, family=family, params=params), args.out)
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


def _cmd_profile(args) -> int:
    state, _, _ = _parse_state_spec(args.state)
    shape = DEFAULT_MESH
    if args.mesh:
        parts = args.mesh.lower().split("x")
        if len(parts) != 2:
            raise ValueError("mesh must look like 181x361")
        shape = (int(parts[0]), int(parts[1]))
        if min(shape) < 2:
            raise ValueError("mesh needs at least two points per axis")
    mesh = _profile_mesh(state, args.order, shape)
    _emit_mesh(mesh, args.out)
    return 0


def _cmd_tomography(args) -> int:
    state, _, _ = _parse_state_spec(args.state)
    shots = None if args.shots in (None, "inf") else int(args.shots)
    try:
        result = run_tomography(
            state,
            shots=shots,
            seed=args.seed,
            direction_mode=args.directions,
            max_order=args.order,
        )
    except RankDeficientError as exc:
        sys.stderr.write(
            f"tomography failed: {exc} (rank {exc.rank}, condition number {exc.condition_number:.3e})\n"
        )
        return 1
    payload = serialize.result_to_json(result, include_records=args.records)
    _emit(payload, args.out)
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
    table = factorials.CentralFactorialTable(args.max_n)
    rows = list(table.rows())
    if args.out and args.out.endswith(".json"):
        payload = [
            {"kind": kind, "n": n, "k": k, "value": str(value)} for kind, n, k, value in rows
        ]
        _emit(payload, args.out)
        return 0
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["kind", "n", "k", "value"])
    for kind, n, k, value in rows:
        writer.writerow([kind, n, k, str(value)])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(buffer.getvalue())
    else:
        sys.stdout.write(buffer.getvalue())
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
            kind = int if key in _INTEGER_PARAMS else float
            family_p.add_argument(f"--{key}", type=kind, default=default, required=default is None)
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
    tomo.add_argument("--directions", default="auto", choices=("auto", "symmetric7"))
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
