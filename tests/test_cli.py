import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stokes_lab
from stokes_lab import checks, cli, serialize, tomography
from stokes_lab.cli import MAX_MESH_POINTS, _parse_state_spec, _profile_mesh, main
from stokes_lab.closed_forms import noon_profile
from stokes_lab.fock import Direction
from stokes_lab.moments import averaged_components, profile_eval
from stokes_lab.serialize import state_from_json
from stokes_lab.tomography import trace_distance
from stokes_lab.states import noon


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_state_noon(capsys):
    code, out, _ = run_cli(capsys, "state", "noon", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "noon"
    assert len(payload["blocks"]) == 1
    assert payload["blocks"][0]["N"] == 3
    vec = [complex(re, im) for re, im in payload["blocks"][0]["vector"]]
    assert vec[0] == pytest.approx(1 / math.sqrt(2))


def test_state_tmsv_blocks(capsys):
    code, out, _ = run_cli(capsys, "state", "tmsv", "--nbar", "0.4", "--mmax", "15")
    assert code == 0
    payload = json.loads(out)
    labels = [b["N"] for b in payload["blocks"]]
    assert labels == list(range(0, 31, 2))
    nbar = 0.4
    assert payload["blocks"][1]["pN"] == pytest.approx(2 * nbar / (2 + nbar) ** 2, rel=1e-9)


def test_state_coherent_poissonian(capsys, tmp_path):
    out_path = tmp_path / "coherent.json"
    code, _, _ = run_cli(
        capsys, "state", "coherent", "--nbar", "2", "--nmax", "25", "--out", str(out_path)
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    state = state_from_json(payload)
    assert state.probability(2) == pytest.approx(math.exp(-2.0) * 2.0**2 / 2.0, rel=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ("state", "coherent", "--nbar", "2"),
        ("state", "tmsv", "--nbar", "0.5"),
        ("profile", "--state", "coherent:nbar=2.0", "--order", "2", "--mesh", "2x2"),
    ],
)
def test_family_defaults_fit_the_manifold_cap(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out


# sha256 of the stdout of `stokes-lab state ...`: the subcommands are built
# from the family table, and explicit flags must keep giving these bytes
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("noon", "--n", "3"), "65a537633189eb9562892d5b3cea5edd04500f500f41bb737a89f6aac758fbb4"),
        (
            ("su2", "--n", "4", "--theta", "0.8", "--phi", "0.3"),
            "164ad3a3e22e3d98b27071f6f9b5b228e88df49ca732155da65bc6e1f2acf871",
        ),
        (("twinfock", "--m", "2"), "8d360d15e851a183bdf3a099ac1a2c5c408c1218f5c5c8e72c0b426b9d0e5522"),
        (("coherent", "--nbar", "2", "--nmax", "25"), "1f249f72566142df3cc2511fb5fa2843b449fcbc464f4eacce32e9c2b9ce93f4"),
        (("tmsv", "--nbar", "0.5", "--mmax", "14"), "f7c0df18aefa6339e3822d87fddd28bf47620a9e8f52beb9a3c797e78da7f2eb"),
        (
            ("unpolarized", "--a", "0.4", "--theta", "1.0"),
            "77b7a9a39c5bf5d894ac84f40ea79645a901f966bd850829e5f544d663955129",
        ),
    ],
)
def test_state_bytes_pinned_with_explicit_flags(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "state", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "spec, digest",
    [
        pytest.param("noon:n=2", "30bbf86dddc9500506ced864257e72e5caeb61839f17ed0f7fd0f0e6b2c993bc", id="noon:n=2"),
        pytest.param("su2:n=4,theta=0.8,phi=0.3", "4fb1e1faa9e432e899a2672f0d7379d940d937c9a76950965809aac0f5884bd9", id="su2:n=4,theta=0.8,phi=0.3"),
        pytest.param("coherent:nbar=2.0,nmax=25", "8dac98f1c4223b68b1131fe10cc6e89f1c4d1ce766a5b6532ecd71f65a4f88dd", id="coherent:nbar=2.0,nmax=25"),
    ],
)
def test_records_bytes_pinned(capsys, spec, digest):
    # only the counts: rho also depends on the BLAS build
    code, out, _ = run_cli(capsys, "tomography", "--state", spec, "--shots", "100000", "--seed", "3", "--records")
    assert code == 0
    assert hashlib.sha256(serialize.dumps(json.loads(out)["records"]).encode()).hexdigest() == digest


def test_state_rejects_bad_params(capsys):
    code, _, err = run_cli(capsys, "state", "tmsv", "--nbar", "4", "--mmax", "3")
    assert code == 1
    assert "tail" in err


def test_profile_json_matches_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "--state", "noon:n=3", "--order", "3", "--mesh", "7x9"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["theta_deg"]) == 7
    assert len(payload["phi_deg"]) == 9
    for i, th in enumerate(payload["theta_deg"]):
        for j, ph in enumerate(payload["phi_deg"]):
            t, p = math.radians(th), math.radians(ph)
            direction = (
                math.sin(t) * math.cos(p),
                math.sin(t) * math.sin(p),
                math.cos(t),
            )
            assert payload["values"][i][j] == pytest.approx(
                noon_profile(3, 3, direction), abs=1e-10
            )


def test_profile_csv_twin_fock_odd_order_zero(capsys, tmp_path):
    out_path = tmp_path / "mesh.csv"
    code, _, _ = run_cli(
        capsys,
        "profile", "--state", "twinfock:m=2", "--order", "3",
        "--mesh", "5x5", "--out", str(out_path),
    )
    assert code == 0
    with open(out_path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 25
    assert all(abs(float(row["value"])) < 1e-10 for row in rows)


@pytest.mark.parametrize(
    "spec", ["noon:n=3", "su2:n=5,theta=0.9,phi=2.3", "coherent:nbar=2.0,nmax=25"]
)
@pytest.mark.parametrize("order", range(1, 8))
def test_profile_mesh_matches_scalar_evaluation(spec, order):
    state = _parse_state_spec(spec)
    comp = averaged_components(state, order)
    rng = np.random.default_rng(order)
    for shape in [(2, 2), (7, 9), (181, 361)]:
        theta_deg, phi_deg, values = _profile_mesh(state, order, shape)
        assert theta_deg == [180.0 * i / (shape[0] - 1) for i in range(shape[0])]
        assert phi_deg == [360.0 * j / (shape[1] - 1) for j in range(shape[1])]
        assert len(values) == shape[0] and all(len(row) == shape[1] for row in values)
        if shape == (181, 361):
            points = zip(rng.integers(0, 181, 64).tolist(), rng.integers(0, 361, 64).tolist())
        else:
            points = np.ndindex(*shape)
        for i, j in points:
            t, p = math.radians(theta_deg[i]), math.radians(phi_deg[j])
            direction = (math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t))
            expected = profile_eval(comp, direction)
            assert type(values[i][j]) is float
            assert abs(values[i][j] - expected) <= 1e-12 * max(1.0, abs(expected))


def test_profile_csv_holds_the_repr_of_each_value(capsys, tmp_path):
    args = ("profile", "--state", "su2:n=3,theta=0.4,phi=1.0", "--order", "3", "--mesh", "5x7")
    out_path = tmp_path / "mesh.csv"
    assert run_cli(capsys, *args, "--out", str(out_path))[0] == 0
    payload = json.loads(run_cli(capsys, *args)[1])
    with open(out_path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["theta_deg", "phi_deg", "value"]
    expected = [
        [repr(th), repr(ph), repr(payload["values"][i][j])]
        for i, th in enumerate(payload["theta_deg"])
        for j, ph in enumerate(payload["phi_deg"])
    ]
    assert rows[1:] == expected


def test_profile_polar_maximum(capsys):
    code, out, _ = run_cli(capsys, "profile", "--state", "su2:n=4", "--order", "1", "--mesh", "3x3")
    payload = json.loads(out)
    assert payload["values"][0][0] == pytest.approx(4.0, abs=1e-12)  # theta = 0 pole
    assert max(max(row) for row in payload["values"]) == pytest.approx(4.0, abs=1e-12)


def test_profile_deterministic_bytes(capsys):
    _, out1, _ = run_cli(capsys, "profile", "--state", "noon:n=2", "--order", "2", "--mesh", "9x9")
    _, out2, _ = run_cli(capsys, "profile", "--state", "noon:n=2", "--order", "2", "--mesh", "9x9")
    assert out1 == out2


# sha256 of `stokes-lab profile` on the default 181x361 mesh, to stdout (JSON)
# and to a .csv path, as the json and csv modules wrote them
@pytest.mark.parametrize(
    "spec, order, json_digest, csv_digest",
    [
        pytest.param(
            "noon:n=6", 6,
            "7db5ac4965727782979edcb5fc54f18c370c4d7fc0a7a3a322ac22105b6f74c4",
            "bb9ce69e52b55e3f50bded87b661198f7bc8be02d5e8ff4d631bde1307c163f0",
            id="noon:n=6",
        ),
        pytest.param(
            "coherent:nbar=2.0,nmax=25", 6,
            "a50cbf93e0e27c17a4617e681d0baf7f3bdb13b276de02b143a00b35b88b0e3a",
            "84ec50f05b0022c34320c43cc64f031fb4feb7365cd737f5a26f0af3eb437136",
            id="coherent:nbar=2.0,nmax=25",
        ),
        pytest.param(
            "su2:n=4,theta=0.7,phi=1.1", 4,
            "c4fec928bf3519ac6fbf17204c17710e6fd5f7636959b7eebf777cbf2e294a49",
            "1a316958b0463f352ce279055a05863baf1a619a506331ccaf6dc465cf12bb7a",
            id="su2:n=4,theta=0.7,phi=1.1",
        ),
        # exact zeros and rounding noise of both signs
        pytest.param(
            "twinfock:m=2", 3,
            "aba0eb9a7312222053ae0c94a12421600360ef9b2082ceba5ab96d20db42d8fe",
            "cf5dff4b24c36fb6a8ce2b00936cac9bc561a6cc13ea2de9feb5ffe82b3a2266",
            id="twinfock:m=2",
        ),
    ],
)
def test_profile_bytes_pinned(capsys, tmp_path, spec, order, json_digest, csv_digest):
    args = ("profile", "--state", spec, "--order", str(order))
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == json_digest
    out_path = tmp_path / "mesh.csv"
    assert run_cli(capsys, *args, "--out", str(out_path)) == (0, "", "")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == csv_digest


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("suffix", [".json", ".csv", None])
def test_profile_non_finite_mesh_rejected_in_every_format(capsys, monkeypatch, tmp_path, bad, suffix):
    def mesh(state, order, shape):
        return [0.0, 90.0], [0.0, 360.0], [[1.0, 2.0], [bad, 3.0]]

    monkeypatch.setattr(cli, "_profile_mesh", mesh)
    path = tmp_path / f"mesh{suffix}"
    out_args = () if suffix is None else ("--out", str(path))
    code, out, err = run_cli(capsys, "profile", "--state", "noon:n=2", "--order", "2", *out_args)
    assert (code, out) == (1, "")
    assert err == "error: Out of range float values are not JSON compliant\n"
    assert not path.exists()


@pytest.mark.parametrize("block_points", [1, 3, serialize.REPR_BLOCK_POINTS])
@pytest.mark.parametrize(
    "grid",
    [
        pytest.param(
            [
                [0.0, -0.0, 1.5, 1.5, 5e-324],
                [-0.0, 0.0, -5e-324, 1e-05, 1.5],
                [2.2250738585072014e-308, 1e16, 0.1, 0.1, -0.0],
            ],
            id="signed-zeros-repeats-subnormals",
        ),
        pytest.param([[0.1], [-0.0], [0.1], [1e300]], id="one-value-per-row"),
    ],
)
def test_float_reprs_give_the_json_text(monkeypatch, grid, block_points):
    monkeypatch.setattr(serialize, "REPR_BLOCK_POINTS", block_points)
    rows = list(serialize.float_reprs(grid))
    assert rows == [[repr(value) for value in row] for row in grid]
    assert "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]" == json.dumps(grid, separators=(",", ":"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_reprs_refuse_non_finite_values_as_json_does(bad):
    with pytest.raises(ValueError) as json_error:
        serialize.dumps([[1.0, bad]])
    with pytest.raises(ValueError) as error:
        serialize.float_reprs([[1.0, bad]])
    assert str(error.value) == str(json_error.value)


def test_tomography_exact_round_trip(capsys):
    code, out, _ = run_cli(capsys, "tomography", "--state", "noon:n=2", "--shots", "inf")
    assert code == 0
    payload = json.loads(out)
    manifold = payload["manifolds"][0]
    assert manifold["N"] == 2
    rho = np.array([[complex(re, im) for re, im in row] for row in manifold["rho"]])
    assert trace_distance(rho, noon(2).density()) <= 1e-7
    assert manifold["diagnostics"]["projection_distance"] <= 1e-9


def test_tomography_exact_eleven_photons(capsys):
    code, out, err = run_cli(capsys, "tomography", "--state", "noon:n=11", "--shots", "inf", "--order", "11")
    assert code == 0, err
    manifold = json.loads(out)["manifolds"][0]
    assert manifold["N"] == 11
    rho = np.array([[complex(re, im) for re, im in row] for row in manifold["rho"]])
    assert trace_distance(rho, noon(11).density()) <= 1e-7


@pytest.mark.parametrize(
    "argv",
    [
        ("tomography", "--state", "noon:n=16", "--shots", "inf", "--order", "16"),
        ("profile", "--state", "noon:n=2", "--order", "15"),
    ],
)
def test_order_above_the_tensor_bound_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "MAX_TENSOR_ORDER" in err


def test_negative_order_cap_rejected(capsys):
    code, out, err = run_cli(capsys, "tomography", "--state", "noon:n=2", "--order", "-1", "--shots", "inf")
    assert code == 1 and out == ""
    assert err == "error: max_order must be a non-negative integer, got -1\n"


def test_order_cap_zero_reconstructs_vacuum(capsys, tmp_path):
    path = tmp_path / "vacuum.json"
    path.write_text(json.dumps({"blocks": [{"N": 0, "pN": 1.0, "vector": [[1.0, 0.0]]}]}))
    code, out, err = run_cli(capsys, "tomography", "--state", str(path), "--order", "0", "--shots", "100", "--seed", "1")
    assert code == 0 and err == ""
    assert [m["N"] for m in json.loads(out)["manifolds"]] == [0]


def test_tomography_seeded_bytes_reproducible(capsys):
    args = ("tomography", "--state", "noon:n=2", "--shots", "20000", "--seed", "7", "--records")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_exact_tomography_bytes_do_not_depend_on_earlier_calls(capsys):
    # the searched direction sets are kept per process after the first call
    args = ["tomography", "--state", "su2:n=6,theta=0.8,phi=0.3", "--shots", "inf"]
    outs = [run_cli(capsys, *args)[1] for _ in range(2)]
    src = str(Path(stokes_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run(
        [sys.executable, "-m", "stokes_lab.cli", *args], capture_output=True, text=True, env=env, check=True
    )
    assert outs[0] == outs[1] == fresh.stdout


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tomography_lines_all_along_z_fail_with_rank_report(capsys, monkeypatch):
    # +z lines see only the diagonal of rho: 3 of the 9 dimensions at N = 2
    monkeypatch.setattr(
        tomography,
        "choose_directions",
        lambda order: tomography.DirectionSet("all-z", order, (Direction(0.0, 0.0, 1.0),) * (2 * order + 1)),
    )
    code, out, err = run_cli(capsys, "tomography", "--state", "noon:n=2", "--shots", "inf")
    assert code == 1 and out == ""
    assert "rank 3" in err
    assert err.startswith("error: ") and "condition number" in err and err.count("\n") == 1


def test_tomography_every_manifold_skipped_fails_with_reasons(capsys):
    code, out, err = run_cli(capsys, "tomography", "--state", "noon:n=2", "--shots", "1", "--seed", "3")
    assert code == 1
    assert out == ""
    assert "every populated manifold was skipped" in err
    assert "2: 'only 8 samples across settings'" in err


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_verify_suites_pass(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", suite)
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_state_file_with_non_finite_number_rejected(capsys, tmp_path, literal):
    path = tmp_path / "state.json"
    path.write_text(
        '{"type": "custom", "params": {}, "truncation_deficit": 0.0, "blocks": '
        f'[{{"N": 1, "pN": {literal}, "vector": [[1.0, 0.0], [0.0, 0.0]]}}]}}'
    )
    code, out, err = run_cli(capsys, "tomography", "--state", str(path), "--shots", "inf")
    assert code == 1
    assert out == ""
    assert f"non-finite number {literal}" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("noon:", "needs the parameter n"),
        ("noon:n=2.7", "must be an integer"),
        ("noon:n=2,m=5", "takes no parameter m"),
        ("noon:n=2,n=3", "parameter n appears twice"),
        ("su2:n=2,theta=0.1, theta=0.1", "parameter theta appears twice"),
        ("su2:n=2,theta=inf", "angles (theta, phi) must be finite"),
    ],
)
def test_malformed_state_spec_rejected(capsys, spec, message):
    code, out, err = run_cli(capsys, "tomography", "--state", spec, "--shots", "inf")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


BLOCK = {"N": 1, "pN": 1.0, "vector": [[1.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"blocks": [], "blocks": [BLOCK]}', "blocks"),
        ('{"blocks": [{"N": 1, "pN": 1.0, "pN": 0.5, "vector": [[1.0, 0.0], [0.0, 0.0]]}]}', "pN"),
    ],
)
def test_state_file_with_repeated_key_rejected(capsys, tmp_path, text, key):
    path = tmp_path / "state.json"
    path.write_text(text.replace("BLOCK", json.dumps(BLOCK)))
    code, out, err = run_cli(capsys, "tomography", "--state", str(path), "--shots", "inf")
    assert code == 1
    assert out == ""
    assert err == f"error: state file repeats the key {key!r}\n"


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"type": "custom"}, "no 'blocks' field"),
        ({"blocks": [{k: v for k, v in BLOCK.items() if k != "N"}]}, "no 'N' field"),
        ({"blocks": [{k: v for k, v in BLOCK.items() if k != "pN"}]}, "no 'pN' field"),
        ({"blocks": [{"N": 1, "pN": 1.0}]}, "neither a 'vector' nor a 'matrix'"),
        ({"blocks": 5}, "malformed state"),
        ({"blocks": [BLOCK], "truncation_deficit": -5}, "truncation deficit must lie in [0, 1)"),
        (
            {"blocks": [{"N": 2.5, "pN": 1.0, "vector": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}]},
            "state block 0 field 'N' must be an integer, got 2.5",
        ),
        ({"blocks": [{**BLOCK, "N": True}]}, "state block 0 field 'N' must be an integer, got True"),
        ({"blocks": [{**BLOCK, "N": "1"}]}, "state block 0 field 'N' must be an integer, got '1'"),
        ({"blocks": [{**BLOCK, "pN": "1.0"}]}, "state block 0 field 'pN' must be a number, got '1.0'"),
        ({"blocks": [{**BLOCK, "pN": True}]}, "state block 0 field 'pN' must be a number, got True"),
        (
            {"blocks": [{**BLOCK, "vector": [[True, False], [False, False]]}]},
            "state block 0 field 'vector' must hold [re, im] pairs of numbers, got True",
        ),
        (
            {"blocks": [BLOCK], "truncation_deficit": "0.5"},
            "state field 'truncation_deficit' must be a number, got '0.5'",
        ),
        ({"blocks": [{**BLOCK, "pN": 10**400}]}, "malformed state: int too large to convert to float"),
    ],
)
def test_malformed_state_file_rejected(capsys, tmp_path, payload, message):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "tomography", "--state", str(path), "--shots", "inf")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("profile", "--state", "noon:n=2", "--order", "1", "--mesh", "3x"), "mesh must look like 181x361"),
        (("profile", "--state", "noon:n=2", "--order", "1", "--mesh", "axb"), "mesh must look like 181x361"),
        (("tomography", "--state", "noon:n=2", "--shots", "1e5"), "shots must be a positive integer or 'inf'"),
        (("state", "noon", "--n", "2.5"), "parameter n must be an integer"),
    ],
)
def test_flag_value_rejected_with_its_expected_form(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("mesh", ["100000x100000", "2000x2001"])
def test_profile_mesh_above_the_bound_rejected_before_allocating(capsys, monkeypatch, mesh):
    def allocate(*args):
        raise AssertionError("built a mesh above the bound")

    monkeypatch.setattr(cli, "_profile_mesh", allocate)
    code, out, err = run_cli(capsys, "profile", "--state", "noon:n=2", "--order", "2", "--mesh", mesh)
    assert code == 1 and out == ""
    assert err == f"error: mesh {mesh} has more than MAX_MESH_POINTS = {MAX_MESH_POINTS} points\n"


def test_profile_mesh_at_the_bound_accepted(capsys, monkeypatch):
    shapes = []

    def record(state, order, shape):
        shapes.append(shape)
        return [0.0], [0.0], [[0.0]]

    monkeypatch.setattr(cli, "_profile_mesh", record)
    code, _, _ = run_cli(capsys, "profile", "--state", "noon:n=2", "--order", "2", "--mesh", "2000x2000")
    assert code == 0 and shapes == [(2000, 2000)] and 2000 * 2000 == MAX_MESH_POINTS


@pytest.mark.parametrize("value", ["abc", "-3", "1.5", ""])
def test_manifold_cap_variable_rejected_with_its_expected_form(capsys, monkeypatch, value):
    monkeypatch.setenv("STOKES_LAB_NMAX", value)
    code, out, err = run_cli(capsys, "tomography", "--state", "noon:n=2", "--shots", "inf")
    assert code == 1 and out == ""
    assert err == f"error: STOKES_LAB_NMAX must be a non-negative integer, got {value!r}\n"


def test_non_finite_unpolarized_parameter_rejected_without_warning(capsys, recwarn):
    code, out, err = run_cli(capsys, "state", "unpolarized", "--a", "0.3", "--theta", "inf")
    assert code == 1 and out == ""
    assert err == "error: parameters (a, theta) must be finite, not NaN or infinite\n"
    assert not recwarn.list


PROFILE_ARGS = ("profile", "--state", "su2:n=3,theta=0.4,phi=1.0", "--order", "3", "--mesh", "5x7")
FACTORIAL_ARGS = ("factorials", "--max-n", "6")
CSV_HEADERS = {"profile": ["theta_deg", "phi_deg", "value"], "factorials": ["kind", "n", "k", "value"]}


@pytest.mark.parametrize(
    "argv, suffix, written",
    [
        (PROFILE_ARGS, ".csv", "csv"),
        (PROFILE_ARGS, ".json", "json"),
        (PROFILE_ARGS, ".txt", "json"),
        (PROFILE_ARGS, None, "json"),
        (FACTORIAL_ARGS, None, "csv"),
        (FACTORIAL_ARGS, ".csv", "csv"),
        (FACTORIAL_ARGS, ".txt", "csv"),
        (FACTORIAL_ARGS, ".json", "json"),
        (("state", "noon", "--n", "3"), ".csv", None),
        (("tomography", "--state", "noon:n=2", "--shots", "inf"), ".csv", None),
    ],
)
def test_out_extension_picks_the_format(capsys, tmp_path, argv, suffix, written):
    path = tmp_path / f"out{suffix}"
    code, out, err = run_cli(capsys, *argv, *(() if suffix is None else ("--out", str(path))))
    if written is None:
        assert code == 1 and out == "" and not path.exists()
        assert err.startswith("error: ") and "JSON-only" in err
        return
    assert code == 0
    if suffix is not None:
        assert out == ""
        out = path.read_text()
    if written == "csv":
        assert next(csv.reader(out.splitlines())) == CSV_HEADERS[argv[0]]
        return
    payload = json.loads(out)
    if argv[0] == "profile":
        assert sorted(payload) == ["phi_deg", "theta_deg", "values"]
        return
    csv_rows = list(csv.DictReader(run_cli(capsys, *FACTORIAL_ARGS)[1].splitlines()))
    assert [{key: str(value) for key, value in row.items()} for row in payload] == csv_rows


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_factorials_csv(capsys):
    code, out, _ = run_cli(capsys, "factorials", "--max-n", "6")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    lookup = {(r["kind"], int(r["n"]), int(r["k"])): r["value"] for r in rows}
    assert lookup[("f", 4, 2)] == "-1"
    assert lookup[("f", 3, 1)] == "-1/4"
    assert lookup[("F", 4, 2)] == "1"


@pytest.mark.parametrize("max_n", ["101", "100000000", "-1"])
def test_factorials_bound_rejected_with_one_error_line(capsys, max_n):
    code, out, err = run_cli(capsys, "factorials", "--max-n", max_n)
    assert code == 1 and out == ""
    assert err == f"error: max_degree must lie in 0..100 (CentralFactorialTable.MAX_DEGREE), got {max_n}\n"


def test_state_spec_file_round_trip(capsys, tmp_path):
    out_path = tmp_path / "state.json"
    run_cli(capsys, "state", "noon", "--n", "2", "--out", str(out_path))
    code, out, _ = run_cli(capsys, "profile", "--state", str(out_path), "--order", "2", "--mesh", "3x5")
    assert code == 0
    payload = json.loads(out)
    equator = payload["values"][1]  # theta = 90 deg row
    assert equator[0] == pytest.approx(4.0, abs=1e-10)  # 2 cos 0 + 2
