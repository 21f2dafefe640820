"""The four benchmark workloads: their inputs per round and their gates.

A workload turns (seed, phase, round index) into a list of CLI argv items,
deterministically, and checks each item's exit code and stdout against an
oracle that does not go through the program's reconstruction path.  Every
round of a workload has the same shape (same commands, same sizes); only
the random draws change.  Gates return failure messages instead of
raising, so a wrong output is counted and the run goes on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stokes_lab import closed_forms, states

EXACT_TD_TOL = 1e-7
SHOT_EIG_TOL = 1e-12
SHOT_TRACE_TOL = 1e-12
SHOT_MEDIAN_TOL = 0.05  # acceptance criterion 07
MESH_REL_TOL = 1e-9
PROB_TOL = 1e-12
MESH_SAMPLES = 32

EXACT_PHOTONS = range(1, 7)
SHOTS = 100_000
SHOT_STATES = (
    ("noon:n=2", lambda: states.noon(2)),
    ("su2:n=3,theta=0.8,phi=0.3", lambda: states.su2_coherent(3, 0.8, 0.3)),
    ("twinfock:m=1", lambda: states.twin_fock(1)),
)
COHERENT_NMAX = 25
ORDER_CAP = 6  # the CLI's default order cap; manifolds above it are skipped
MESH_SHAPE = (181, 361)


@dataclass
class Item:
    argv: list
    expect: dict = field(default_factory=dict)


def round_rng(seed: int, phase: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, phase, index])


def trace_distance(a, b) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))).sum())


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _random_density(dim: int, rng) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _parse(stdout: str, failures: list):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        failures.append(f"stdout is not JSON: {exc}")
        return None


def _check_tomography(payload, expect: dict, failures: list) -> list:
    """Shared structure check; returns [(N, rho_out, pN_out)] when it holds."""
    manifolds = payload.get("manifolds") if isinstance(payload, dict) else None
    if not isinstance(manifolds, list):
        failures.append("no manifolds list in the output")
        return []
    got = [m["N"] for m in manifolds]
    if got != sorted(expect["truth"]):
        failures.append(f"reconstructed manifolds {got}, expected {sorted(expect['truth'])}")
        return []
    skipped = sorted(int(n) for n in payload.get("skipped", {}))
    if skipped != expect["skipped"]:
        failures.append(f"skipped manifolds {skipped}, expected {expect['skipped']}")
    return [(m["N"], _matrix(m["rho"]), m["pN"]) for m in manifolds]


class Workload:
    """Base: subclasses define items() and check_item()."""

    name = ""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def items(self, seed: int, phase: int, index: int) -> list:
        raise NotImplementedError

    def check_item(self, item: Item, code, stdout: str, stats: dict) -> list:
        raise NotImplementedError

    def check_run(self, stats: dict) -> list:
        """Gates over the whole run; returns (item group, message) pairs."""
        return []

    def check(self, item: Item, code, stdout: str, stats: dict) -> list:
        if code != 0:
            return [f"exit code {code!r}"]
        try:
            return self.check_item(item, code, stdout, stats)
        except (KeyError, TypeError, ValueError, IndexError, np.linalg.LinAlgError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]


class ExactMixed(Workload):
    """Exact tomography of fresh random mixed single-manifold states."""

    name = "exact_mixed"

    def items(self, seed, phase, index):
        rng = round_rng(seed, phase, index)
        out = []
        for n in EXACT_PHOTONS:
            rho = _random_density(n + 1, rng)
            path = self.workdir / f"p{phase}_r{index}_n{n}.json"
            payload = {
                "type": "custom",
                "params": {},
                "truncation_deficit": 0.0,
                "blocks": [
                    {"N": n, "pN": 1.0, "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho]}
                ],
            }
            path.write_text(json.dumps(payload), encoding="utf-8")
            out.append(
                Item(
                    ["tomography", "--state", str(path), "--shots", "inf"],
                    {"truth": {n: (rho, 1.0)}, "skipped": []},
                )
            )
        return out

    def check_item(self, item, code, stdout, stats):
        failures = []
        payload = _parse(stdout, failures)
        if payload is None:
            return failures
        for n, rho, p in _check_tomography(payload, item.expect, failures):
            true_rho, true_p = item.expect["truth"][n]
            td = trace_distance(rho, true_rho)
            stats.setdefault("trace_distance", []).append(td)
            if not td <= EXACT_TD_TOL:
                failures.append(f"N={n}: trace distance {td:.3e} > {EXACT_TD_TOL}")
            if not abs(p - true_p) <= PROB_TOL:
                failures.append(f"N={n}: pN {p!r} != {true_p!r}")
        return failures


class ShotsMC(Workload):
    """Criterion-07 Monte Carlo: finite-shot tomography, new seed per round."""

    name = "shots_mc"

    def __init__(self, workdir):
        super().__init__(workdir)
        self.truth = {}
        for spec, build in SHOT_STATES:
            state = build()
            self.truth[spec] = (state.n_photons, state.density())

    def items(self, seed, phase, index):
        shot_seed = int(round_rng(seed, phase, index).integers(0, 2**32))
        out = []
        for spec, _ in SHOT_STATES:
            n, rho = self.truth[spec]
            out.append(
                Item(
                    ["tomography", "--state", spec, "--shots", str(SHOTS), "--seed", str(shot_seed)],
                    {"truth": {n: (rho, 1.0)}, "skipped": [], "group": spec},
                )
            )
        return out

    def check_item(self, item, code, stdout, stats):
        failures = []
        payload = _parse(stdout, failures)
        if payload is None:
            return failures
        for n, rho, _ in _check_tomography(payload, item.expect, failures):
            evals = np.linalg.eigvalsh(rho)
            if not evals.min() >= -SHOT_EIG_TOL:
                failures.append(f"N={n}: minimum eigenvalue {evals.min():.3e}")
            trace = float(np.trace(rho).real)
            if not abs(trace - 1.0) <= SHOT_TRACE_TOL:
                failures.append(f"N={n}: trace {trace!r}")
            td = trace_distance(rho, item.expect["truth"][n][0])
            stats.setdefault("trace_distance", []).append(td)
            stats.setdefault("by_group", {}).setdefault(item.expect["group"], []).append(td)
        return failures

    def check_run(self, stats):
        out = []
        for group, distances in sorted(stats.get("by_group", {}).items()):
            median = float(np.median(distances))
            if not median <= SHOT_MEDIAN_TOL:
                out.append((group, f"{group}: median trace distance {median:.4f} > {SHOT_MEDIAN_TOL}"))
        return out


class CoherentSector(ExactMixed):
    """Exact tomography of a 26-manifold coherent state; the order cap skips 19."""

    name = "coherent_sector"

    def items(self, seed, phase, index):
        nbar = float(round_rng(seed, phase, index).uniform(1.5, 2.5))
        state = states.two_mode_coherent(nbar, COHERENT_NMAX)
        truth = {n: (ms.density(), p) for n, p, ms in state.blocks if n <= ORDER_CAP}
        skipped = sorted(n for n, _, _ in state.blocks if n > ORDER_CAP)
        spec = f"coherent:nbar={nbar!r},nmax={COHERENT_NMAX}"
        return [Item(["tomography", "--state", spec, "--shots", "inf"], {"truth": truth, "skipped": skipped})]


class ProfileMesh(Workload):
    """Default 181x361 profile meshes, checked against closed forms."""

    name = "profile_mesh"

    def items(self, seed, phase, index):
        rng = round_rng(seed, phase, index)
        theta, phi = float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2.0 * math.pi))
        axis = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
        sample_seed = int(rng.integers(0, 2**32))
        return [
            Item(
                ["profile", "--state", "noon:n=6", "--order", "6"],
                {"family": "noon", "params": {"n_photons": 6}, "order": 6, "samples": sample_seed},
            ),
            Item(
                ["profile", "--state", f"coherent:nbar=2.0,nmax={COHERENT_NMAX}", "--order", "6"],
                {
                    "family": "two_mode_coherent",
                    "params": {"mean_photons": 2.0, "n_max": COHERENT_NMAX},
                    "order": 6,
                    "samples": sample_seed,
                },
            ),
            Item(
                ["profile", "--state", f"su2:n=4,theta={theta!r},phi={phi!r}", "--order", "4"],
                {"family": "su2_coherent", "params": {"n_photons": 4}, "order": 4, "axis": axis, "samples": sample_seed},
            ),
        ]

    def check_item(self, item, code, stdout, stats):
        failures = []
        payload = _parse(stdout, failures)
        if payload is None:
            return failures
        theta_deg, phi_deg, values = payload["theta_deg"], payload["phi_deg"], payload["values"]
        shape = (len(theta_deg), len(phi_deg))
        if shape != MESH_SHAPE or any(len(row) != MESH_SHAPE[1] for row in values):
            return [f"mesh shape {shape}, expected {MESH_SHAPE}"]
        expect = item.expect
        rng = np.random.default_rng(expect["samples"])
        for i, j in zip(rng.integers(0, shape[0], MESH_SAMPLES), rng.integers(0, shape[1], MESH_SAMPLES)):
            th, ph = math.radians(theta_deg[i]), math.radians(phi_deg[j])
            direction = (math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th))
            if "axis" in expect:
                # a spin coherent state's profile is the polar one, taken at
                # the angle between the direction and the state's axis
                c = min(1.0, max(-1.0, float(np.dot(direction, expect["axis"]))))
                direction = (math.sqrt(1.0 - c * c), 0.0, c)
            want = closed_forms.closed_form_profile(expect["family"], expect["params"], expect["order"], direction)
            got = values[i][j]
            if not abs(got - want) <= MESH_REL_TOL * max(1.0, abs(want)):
                failures.append(f"mesh[{i}][{j}] = {got!r}, closed form {want!r}")
                break
        return failures


WORKLOADS = {cls.name: cls for cls in (ExactMixed, ShotsMC, CoherentSector, ProfileMesh)}
