import contextlib
import io
import json

import numpy as np
import pytest

from twistlab import matpoly
from twistlab.cli import j2vec, run
from twistlab.errors import SchemaError

WORKED_PAIR = '{"a1": [[[1,0],[0,0]],[[0,0],[2,0]]], "a2": [[[3,0],[1,0]],[[0,0],[4,0]]]}'
WORKED_POLY = (
    '{"poly": {"m":2,"coeffs":[[[[4,0],[1,0]],[[0,0],[6,0]]],'
    '[[[3,0],[1,0]],[[0,0],[8,0]]]]},'
    ' "partition": [[[3,0],[4,0]],[[1,0],[2,0]]]}'
)


def run_text(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, buf.getvalue(), err.getvalue()


def invoke(argv):
    code, out, err = run_text(argv)
    report = json.loads(out) if out.strip().startswith("{") else None
    return code, report, err


def test_verify_map_passes():
    code, rep, _ = invoke(["verify-map", "--map", "scalar_rational", "--samples", "200", "--seed", "7"])
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["schema"] == "twistlab/1"
    assert rep["seed"] == 7
    assert rep["max_residual"] < 1e-10
    assert rep["artifacts"]["involution"]["redraws"] == 0
    assert rep["artifacts"]["braid"]["redraws"] == 0


def test_pair_swap_worked_example():
    code, rep, _ = invoke(["pair-swap", "--in", WORKED_PAIR])
    assert code == 0
    b1 = np.array(rep["artifacts"]["b1"])[..., 0] + 1j * np.array(rep["artifacts"]["b1"])[..., 1]
    b2 = np.array(rep["artifacts"]["b2"])[..., 0] + 1j * np.array(rep["artifacts"]["b2"])[..., 1]
    assert np.allclose(b1, [[3, 2], [0, 4]], atol=1e-10)
    assert np.allclose(b2, [[1, -1], [0, 2]], atol=1e-10)


def test_pair_swap_judges_its_residual(monkeypatch):
    exact = matpoly.transpose_pair

    def perturbed(a1, a2, tol):
        b1, b2 = exact(a1, a2, tol=tol)
        return b1 + 1e-3, b2

    monkeypatch.setattr(matpoly, "transpose_pair", perturbed)
    code, rep, _ = invoke(["pair-swap", "--in", WORKED_PAIR])
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["max_residual"] > 1e-8


def test_j2vec_paths():
    assert np.allclose(j2vec([[1, 2], [0, -1]], "v"), [1 + 2j, -1j])
    with pytest.raises(SchemaError, match=r"^v: expected an array"):
        j2vec({"re": 1}, "v")
    with pytest.raises(SchemaError, match=r"^v\[1\]: expected finite"):
        j2vec([[1, 0], [float("nan"), 0]], "v")


def test_theta_interp_names_a_bad_vector():
    payload = {"points": [[0.1, 0.2], [0.35, 0.3]], "vectors": [[[1, 0], [0, 0]], "x"]}
    code, rep, _ = invoke(["theta-interp", "--m", "2", "--n", "1", "--in", json.dumps(payload)])
    assert code == 2
    assert rep["error"]["type"] == "SchemaError"
    assert rep["error"]["message"].startswith("input.vectors[1]: expected an array")


def test_factor_poly_invalid_partition_exit_2():
    bad = WORKED_POLY.replace('[[[3,0],[4,0]],[[1,0],[2,0]]]', '[[[3,0]],[[1,0]]]')
    code, rep, err = invoke(["factor-poly", "--in", bad])
    assert code == 2
    assert rep["status"] == "error"
    assert "PartitionInvalid" in rep["error"]["type"]
    assert err


def test_factor_poly_huge_entry_exit_2():
    huge = WORKED_POLY.replace("[[[[4,0]", "[[[[1e300,0]", 1)
    code, rep, err = invoke(["factor-poly", "--in", huge])
    assert code == 2
    assert rep["status"] == "error"
    assert "Traceback" not in err


def test_load_json_complex_and_matrix():
    code, rep, _ = invoke(["act", "--map", "scalar_rational", "--word", "1,1", "--in", "[[1,2],[0.5,0]]"])
    assert code == 0
    out = rep["artifacts"]["tuple"]
    assert abs(complex(out[0][0], out[0][1]) - (1 + 2j)) < 1e-9


def test_ragged_matrix_names_row():
    code, rep, _ = invoke(["pair-swap", "--in", '{"a1": [[[1,0],[0,0]],[[0,0]]], "a2": [[[3,0],[1,0]],[[0,0],[4,0]]]}'])
    assert code == 2
    assert "a1[1]" in rep["error"]["message"]


def test_unknown_subcommand_exit_2():
    code, _, _ = invoke(["does-not-exist"])
    assert code == 2


def test_verification_failure_exit_1():
    code, rep, _ = invoke(
        ["q-check", "--l", "diag_u", "--map", "scalar_rational", "--n", "2", "--samples", "10"]
    )
    assert code == 1
    assert rep["status"] == "fail"


def test_env_seed_default(monkeypatch):
    monkeypatch.setenv("TWISTLAB_SEED", "31")
    code, rep, _ = invoke(["verify-map", "--map", "q_swap", "--samples", "10"])
    assert code == 0
    assert rep["seed"] == 31


def test_text_format():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(["verify-map", "--map", "q_swap", "--samples", "5", "--format", "text"])
    assert code == 0
    assert "status: pass" in buf.getvalue()


def test_theta_interp_and_zeros_round_trip():
    lam = [0.1 + 0.2j, 0.35 + 0.3j]
    c = sum(lam) - 0.5
    payload = {
        "points": [[z.real, z.imag] for z in lam],
        "vectors": [[[1, 0], [0.3, 0.1]], [[0.2, -0.4], [1, 0]]],
    }
    code, rep, _ = invoke(
        [
            "theta-interp",
            "--m", "2", "--n", "1",
            f"--c={c.real},{c.imag}",
            "--tau", "0,1",
            "--in", json.dumps(payload),
        ]
    )
    assert code == 0
    elem = rep["artifacts"]["element"]
    argv = ["theta-zeros", "--in", json.dumps(elem)]
    code, out, _ = run_text(argv)
    assert code == 0
    assert run_text(argv)[1] == out
    art = json.loads(out)["artifacts"]
    zeros = [complex(z[0], z[1]) for z in art["zeros"]]
    for z in lam:
        assert min(abs(z - w) for w in zeros) < 1e-6
    assert art["grid"] == 48
    assert 0 < art["newton_steps"] <= 60
    assert art["sum_residual"] < 1e-6


def test_theta_mu_cli():
    def build(lams):
        c = sum(lams) - 0.5
        payload = {
            "points": [[z.real, z.imag] for z in lams],
            "vectors": [[[1, 0], [0.2, 0.3]], [[0.5, -0.1], [1, 0]]],
        }
        code, rep, _ = invoke(
            ["theta-interp", "--m", "2", "--n", "1", f"--c={c.real},{c.imag}",
             "--tau", "0,1", "--in", json.dumps(payload)]
        )
        assert code == 0
        return rep["artifacts"]["element"]

    f = build([0.12 + 0.18j, 0.31 + 0.4j])
    g = build([0.4 + 0.1j, 0.05 + 0.33j])
    code, rep, _ = invoke(["theta-mu", "--in", json.dumps({"f": f, "g": g})])
    assert code == 0
    f1z = [complex(z[0], z[1]) for z in rep["artifacts"]["f1_zeros"]]
    gz = [complex(z[0], z[1]) for z in [[0.4, 0.1], [0.05, 0.33]]]
    for z in gz:
        assert min(abs(z - w) for w in f1z) < 1e-9


ALL_SUBCOMMANDS = [
    ["verify-map", "--map", "scalar_rational", "--samples", "20", "--seed", "3"],
    ["act", "--map", "scalar_rational", "--word", "1,2,1", "--in", "[[2,0],[3,0],[5,0]]"],
    ["factor-poly", "--in", WORKED_POLY],
    ["pair-swap", "--in", WORKED_PAIR],
    ["theta-basis", "--m", "2", "--n", "1", "--c", "0.3,0.2", "--tau", "0,1"],
    [
        "theta-zeros",
        "--in",
        None,  # filled below with a deterministic element
    ],
    ["verify-ybe", "--r", "relabel_swap", "--map", "scalar_rational", "--n", "2", "--samples", "15", "--seed", "5"],
    ["verify-l", "--l", "power", "--r", "relabel_id", "--map", "scalar_rational", "--n", "2", "--samples", "15", "--seed", "5"],
    ["q-check", "--l", "constant", "--map", "scalar_rational", "--n", "2", "--samples", "15", "--seed", "5"],
    ["scatter", "--r", "relabel_swap", "--map", "scalar_rational", "--word", "1,2,1", "--n", "2", "--in", "[[2,0],[3,0],[5,0]]"],
    ["gf-verify", "--gf", "trivial", "--base-map", "scalar_rational", "--m", "2", "--n", "2", "--samples", "10", "--seed", "5"],
    ["gf-compose", "--gf", "trivial", "--base-map", "scalar_rational", "--m", "2", "--n", "2", "--samples", "15", "--seed", "5"],
]


def _theta_element_json():
    lam = [0.1 + 0.2j, 0.35 + 0.3j]
    c = sum(lam) - 0.5
    payload = {
        "points": [[z.real, z.imag] for z in lam],
        "vectors": [[[1, 0], [0.3, 0.1]], [[0.2, -0.4], [1, 0]]],
    }
    _, rep, _ = invoke(
        ["theta-interp", "--m", "2", "--n", "1", f"--c={c.real},{c.imag}",
         "--tau", "0,1", "--in", json.dumps(payload)]
    )
    return json.dumps(rep["artifacts"]["element"])


@pytest.mark.parametrize("argv", ALL_SUBCOMMANDS, ids=lambda a: a[0])
def test_determinism_per_subcommand(argv):
    argv = list(argv)
    if argv[0] == "theta-zeros":
        argv[2] = _theta_element_json()
    code1, out1, _ = run_text(argv)
    code2, out2, _ = run_text(argv)
    assert code1 == code2 == 0
    assert "timing" not in json.loads(out1)
    assert out1 == out2


@pytest.mark.parametrize(
    "m,n,flags",
    [
        (3, 3, ["--tau", "0,1"]),
        (2, 2, ["--tau", "0,2"]),
        (2, 3, ["--c", "0,0"]),
    ],
)
def test_theta_basis_builds_across_the_box(m, n, flags):
    # parameter sets the earlier numerical construction failed on
    code, rep, _ = invoke(["theta-basis", "--m", str(m), "--n", str(n)] + flags)
    assert code == 0
    assert rep["artifacts"]["dim"] == m * m * n


NAN_PAIR = '{"a1": [[[NaN,0],[0,0]],[[0,0],[2,0]]], "a2": [[[3,0],[1,0]],[[0,0],[4,0]]]}'


@pytest.mark.parametrize(
    "argv",
    [
        ["theta-basis", "--c", "nan,0"],
        ["theta-basis", "--tau", "0,nan"],
        ["theta-basis", "--tau", "nan,1"],
        ["pair-swap", "--in", NAN_PAIR],
        ["pair-swap", "--in", NAN_PAIR.replace("NaN", "1" + "0" * 400)],
    ],
    ids=["c-nan", "tau-im-nan", "tau-re-nan", "pair-swap-json-nan", "pair-swap-json-huge-int"],
)
def test_non_finite_input_exit_2(argv):
    code, rep, err = invoke(argv)
    assert code == 2
    assert rep["status"] == "error"
    assert rep["error"]["type"] == "SchemaError"
    assert "finite" in rep["error"]["message"]
    assert "Traceback" not in err


def _theta_json(c, coeffs):
    return {"tau": [0, 1], "m": 1, "n": 1, "c": [c.real, c.imag], "coeffs": [[x.real, x.imag] for x in coeffs]}


def test_theta_mu_exchanges_c_whose_sum_leaves_the_box():
    # c_f + c_g has Im 9.5 > 8, but the exchange never forms f g
    f, g = _theta_json(0.1 + 5j, [1]), _theta_json(0.4 + 4.5j, [1])
    code, rep, err = invoke(["theta-mu", "--in", json.dumps({"f": f, "g": g})])
    assert code == 0
    assert "Traceback" not in err
    assert rep["artifacts"]["f1"]["c"] == g["c"] and rep["artifacts"]["g1"]["c"] == f["c"]


def test_theta_factor_of_the_zero_element_exit_2():
    payload = {"element": _theta_json(0.3 + 0.2j, [0]), "partition": [[[0.8, 0.2]]], "csplit": [[0.3, 0.2]]}
    code, rep, err = invoke(["theta-factor", "--in", json.dumps(payload)])
    assert code == 2
    assert rep["error"]["type"] == "InputInvalid"
    assert "Traceback" not in err
