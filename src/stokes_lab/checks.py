"""Self-contained verification suites behind the CLI verify subcommand.

Each suite returns CheckResult rows; the CLI turns them into pass/fail
lines and an exit code.  The pytest acceptance module runs the same
checks with tighter reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closed_forms, factorials, moments, reference, states, tomography
from .fock import stokes_in_direction, stokes_operator

# Sizes and seeds of the suites; every run checks the same cases.
ALGEBRA_MAX_PHOTONS = 10
PROFILE_TRIALS, PROFILE_MAX_ORDER, PROFILE_SEED = 40, 6, 5
RECURRENCE_MAX_PHOTONS, RECURRENCE_TRIALS, RECURRENCE_SEED = 6, 10, 9
FACTORIAL_MAX_DEGREE = 12
TOMOGRAPHY_SEED = 21


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _result(suite, name, passed, detail=""):
    return CheckResult(suite, name, bool(passed), detail)


def _random_direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_density(n_photons, rng):
    a = rng.normal(size=(n_photons + 1, n_photons + 1)) + 1j * rng.normal(size=(n_photons + 1, n_photons + 1))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def verify_algebra() -> list[CheckResult]:
    """Commutators, compatibility with total photon number, and the Casimir sum."""
    out = []
    worst_comm = worst_s0 = worst_casimir = 0.0
    for n in range(ALGEBRA_MAX_PHOTONS + 1):
        s = {j: stokes_operator(j, n) for j in range(4)}
        for (a, b, c) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            dev = np.abs(s[a] @ s[b] - s[b] @ s[a] - 2j * s[c]).max(initial=0.0)
            worst_comm = max(worst_comm, float(dev))
        for j in (1, 2, 3):
            worst_s0 = max(worst_s0, float(np.abs(s[0] @ s[j] - s[j] @ s[0]).max(initial=0.0)))
        casimir = s[1] @ s[1] + s[2] @ s[2] + s[3] @ s[3]
        worst_casimir = max(
            worst_casimir,
            float(np.abs(casimir - n * (n + 2) * np.eye(n + 1)).max(initial=0.0)),
        )
    out.append(_result("algebra", "su2-commutators", worst_comm <= 1e-10, f"max dev {worst_comm:.2e}"))
    out.append(_result("algebra", "total-number-compatible", worst_s0 <= 1e-10, f"max dev {worst_s0:.2e}"))
    out.append(_result("algebra", "casimir-sum", worst_casimir <= 1e-10, f"max dev {worst_casimir:.2e}"))
    return out


def _profile_cases():
    return [
        ("su2_coherent", {"n_photons": 4}, states.su2_coherent(4, 0.0, 0.0)),
        ("twin_fock", {"pairs": 3}, states.twin_fock(3)),
        ("noon", {"n_photons": 5}, states.noon(5)),
        ("two_mode_coherent", {"mean_photons": 0.8, "n_max": 30}, states.two_mode_coherent(0.8, 30)),
        ("tmsv", {"mean_photons": 0.5, "m_max": 14}, states.tmsv(0.5, 14)),
    ]


def verify_profiles() -> list[CheckResult]:
    """Closed-form family profiles against the matrix route."""
    rng = np.random.default_rng(PROFILE_SEED)
    out = []
    for family, params, state in _profile_cases():
        worst = 0.0
        for _ in range(PROFILE_TRIALS):
            n = _random_direction(rng)
            for order in range(1, PROFILE_MAX_ORDER + 1):
                closed = closed_forms.closed_form_profile(family, params, order, n)
                direct = moments.averaged_profile(state, order, n)
                worst = max(worst, abs(closed - direct) / max(1.0, abs(direct)))
        out.append(_result("profiles", family, worst <= 1e-9, f"max rel dev {worst:.2e}"))
    return out


def verify_recurrence() -> list[CheckResult]:
    """Moment power recurrence against direct matrix powers on random states."""
    rng = np.random.default_rng(RECURRENCE_SEED)
    worst = 0.0
    for n in range(1, RECURRENCE_MAX_PHOTONS + 1):
        for _ in range(RECURRENCE_TRIALS):
            rho = _random_density(n, rng)
            direction = _random_direction(rng)
            op = stokes_in_direction(direction, n)
            vals = {r: float(np.trace(rho @ np.linalg.matrix_power(op, r)).real) for r in range(0, n + 6)}
            for target in range(n + 1, n + 6):
                pred = factorials.profile_recurrence(n, vals, target)
                worst = max(worst, abs(pred - vals[target]) / max(1.0, abs(vals[target])))
    results = [_result("recurrence", "matrix-power-cross-check", worst <= 1e-9, f"max rel dev {worst:.2e}")]
    # frozen low-manifold forms, exact rational coefficients
    from fractions import Fraction

    expected = {
        (1, 4): {0: Fraction(1)},
        (1, 5): {1: Fraction(1)},
        (2, 5): {1: Fraction(16)},
        (2, 6): {2: Fraction(16)},
        (3, 4): {0: Fraction(9 - 81, 8), 2: Fraction(80, 8)},
        (3, 5): {1: Fraction(9 - 81, 8), 3: Fraction(80, 8)},
    }
    ok = True
    detail = []
    for (n, target), want in expected.items():
        got = dict(factorials.recurrence_coefficients(n, target))
        got = {k: v for k, v in got.items() if v != 0}
        if got != want:
            ok = False
            detail.append(f"N={n}, r={target}: {got} != {want}")
    results.append(_result("recurrence", "closed-forms-low-manifolds", ok, "; ".join(detail) or "exact match"))
    return results


def verify_factorials() -> list[CheckResult]:
    """Dual routes to the first-kind numbers plus table inversion."""
    out = []
    table = factorials.CentralFactorialTable(FACTORIAL_MAX_DEGREE)
    try:
        table.verify_explicit_formula()
        out.append(_result("factorials", "explicit-vs-expansion", True, f"exact for n <= {FACTORIAL_MAX_DEGREE}"))
    except Exception as exc:  # pragma: no cover - hard failure path
        out.append(_result("factorials", "explicit-vs-expansion", False, str(exc)))
    ok = True
    for n in range(FACTORIAL_MAX_DEGREE + 1):
        for k in range(FACTORIAL_MAX_DEGREE + 1):
            total = sum(table.second_kind(n, j) * table.first_kind(j, k) for j in range(FACTORIAL_MAX_DEGREE + 1))
            if total != (1 if n == k else 0):
                ok = False
    out.append(_result("factorials", "mutually-inverse-tables", ok, "F o f = identity" if ok else "inversion failed"))
    spot = table.first_kind(4, 2) == -1 and table.first_kind(4, 4) == 1
    out.append(_result("factorials", "spot-values", spot, "f(4,2) = -1, f(4,4) = 1"))
    ok_q = all(
        factorials.q_polynomial(j, n) == factorials.q_polynomial_recurrence(j, n)
        for j in range(6)
        for n in range(6)
    )
    out.append(_result("factorials", "q-polynomial-dual-route", ok_q, "definition == recurrence"))
    return out


def verify_tomography() -> list[CheckResult]:
    """Round trips, dual second-order routes, and the rank-4 failure."""
    rng = np.random.default_rng(TOMOGRAPHY_SEED)
    out = []
    worst = 0.0
    for n in (1, 2, 3):
        state = states.ManifoldState.mixed(n, _random_density(n, rng))
        res = tomography.run_tomography(state)
        worst = max(
            worst, tomography.trace_distance(res.manifolds[n].state.density(), state.density())
        )
    out.append(_result("tomography", "exact-round-trip", worst <= 1e-7, f"max trace distance {worst:.2e}"))

    state = states.ManifoldState.mixed(2, _random_density(2, rng))
    icosa = tomography.icosahedral_directions()
    measured = [moments.stokes_profile(state, 2, d) for d in icosa.directions]
    closed = tomography.closed_form_second_order(measured, 2)
    solved, _ = reference.solve_moment_components(icosa.directions, measured, 2, 2)
    dev = float(np.abs(closed.as_vector() - solved.as_vector()).max())
    out.append(_result("tomography", "second-order-dual-route", dev <= 1e-9, f"max dev {dev:.2e}"))

    _, _, svd = reference.reduced_design(tomography.third_order_symmetric_directions().directions, 3)
    rank, sv = svd.rank, svd.sv
    out.append(
        _result(
            "tomography",
            "symmetric-seven-rank-four",
            rank == 4 and sv[4] / sv[0] < 1e-12,
            f"rank {rank}, sigma5/sigma1 {sv[4] / sv[0]:.2e}",
        )
    )
    _, _, svd = reference.reduced_design(tomography.third_order_fallback_directions().directions, 3)
    cond = svd.condition_number
    out.append(
        _result(
            "tomography",
            "fallback-conditioning",
            svd.rank == 7 and cond < 100.0,
            f"cond {cond:.2f}",
        )
    )

    worst = 0.0
    for n in (1, 2, 3, 4):
        state = states.ManifoldState.mixed(n, _random_density(n, rng))
        expected = reference.paper_route_density(state)
        res = tomography.run_tomography(state)
        worst = max(worst, tomography.trace_distance(res.manifolds[n].state.density(), expected))
    out.append(_result("tomography", "paper-route-agrees", worst <= 1e-9, f"max trace distance {worst:.2e}"))
    return out


SUITES = {
    "algebra": verify_algebra,
    "profiles": verify_profiles,
    "recurrence": verify_recurrence,
    "factorials": verify_factorials,
    "tomography": verify_tomography,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
