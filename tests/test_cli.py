import contextlib
import io
import json

import numpy as np
import pytest

from twistlab.cli import run

WORKED_PAIR = '{"a1": [[[1,0],[0,0]],[[0,0],[2,0]]], "a2": [[[3,0],[1,0]],[[0,0],[4,0]]]}'
WORKED_POLY = (
    '{"poly": {"m":2,"coeffs":[[[[4,0],[1,0]],[[0,0],[6,0]]],'
    '[[[3,0],[1,0]],[[0,0],[8,0]]]]},'
    ' "partition": [[[3,0],[4,0]],[[1,0],[2,0]]]}'
)


def invoke(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = run(argv)
    out = buf.getvalue()
    report = json.loads(out) if out.strip().startswith("{") else None
    return code, report, err.getvalue()


def test_verify_map_passes():
    code, rep, _ = invoke(["verify-map", "--map", "scalar_rational", "--samples", "200", "--seed", "7"])
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["schema"] == "twistlab/1"
    assert rep["seed"] == 7
    assert rep["max_residual"] < 1e-10


def test_pair_swap_worked_example():
    code, rep, _ = invoke(["pair-swap", "--in", WORKED_PAIR])
    assert code == 0
    b1 = np.array(rep["artifacts"]["b1"])[..., 0] + 1j * np.array(rep["artifacts"]["b1"])[..., 1]
    b2 = np.array(rep["artifacts"]["b2"])[..., 0] + 1j * np.array(rep["artifacts"]["b2"])[..., 1]
    assert np.allclose(b1, [[3, 2], [0, 4]], atol=1e-10)
    assert np.allclose(b2, [[1, -1], [0, 2]], atol=1e-10)


def test_factor_poly_invalid_partition_exit_2():
    bad = WORKED_POLY.replace('[[[3,0],[4,0]],[[1,0],[2,0]]]', '[[[3,0]],[[1,0]]]')
    code, rep, err = invoke(["factor-poly", "--in", bad])
    assert code == 2
    assert rep["status"] == "error"
    assert "PartitionInvalid" in rep["error"]["type"]
    assert err


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
    code, rep, _ = invoke(["theta-zeros", "--in", json.dumps(elem)])
    assert code == 0
    zeros = [complex(z[0], z[1]) for z in rep["artifacts"]["zeros"]]
    for z in lam:
        assert min(abs(z - w) for w in zeros) < 1e-6


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
    code1, rep1, _ = invoke(argv)
    code2, rep2, _ = invoke(argv)
    assert code1 == code2 == 0
    rep1.pop("timing")
    rep2.pop("timing")
    assert rep1 == rep2


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
