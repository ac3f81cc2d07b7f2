"""End-to-end acceptance suite.

Each test evaluates one acceptance criterion at its stated tolerance
and prints one PASS line (run with pytest -s to see them stream).
"""

import contextlib
import io
import json
import time

import numpy as np

import twistlab as tl
from twistlab.cli import run as cli_run
from twistlab.mtheta import LatticeParams, ThetaDomain, _kernel_vector
from twistlab.transpositions import compose_permutations


def _ok(num, text):
    print(f"[acceptance] criterion {num:02d} PASS {text}")


def test_criterion_01_functional_equations():
    fast_maps = [
        tl.builtin_map("q_swap", q_scale=2.0, q_shift=0.5),
        tl.builtin_map("scalar_rational"),
        tl.builtin_map("matrix_rational", m=2),
        tl.builtin_map("matrix_rational", m=3),
        tl.pair_map(2),
        tl.pair_map(3),
    ]
    t0 = time.time()
    for map_ in fast_maps:
        inv = tl.verify_involution(map_, samples=500, seed=101, tol=1e-9)
        braid = tl.verify_braid(map_, samples=500, seed=102, tol=1e-8)
        assert inv.passed, (map_.name, inv.max_residual)
        assert braid.passed, (map_.name, braid.max_residual)
    fast_elapsed = time.time() - t0
    assert fast_elapsed < 60, f"non-theta runtime {fast_elapsed:.1f}s"
    t1 = time.time()
    for m in (1, 2):
        tm = tl.theta_map(m, 1j)
        inv = tl.verify_involution(tm, samples=500, seed=103, tol=1e-9)
        braid = tl.verify_braid(tm, samples=500, seed=104, tol=1e-8)
        assert inv.passed, (m, inv.max_residual)
        assert braid.passed, (m, braid.max_residual)
    theta_elapsed = time.time() - t1
    assert theta_elapsed < 300, f"theta runtime {theta_elapsed:.1f}s"
    _ok(1, f"involution/braid on 8 maps, 500 samples each ({fast_elapsed:.0f}s + theta {theta_elapsed:.0f}s)")


def test_criterion_02_pair_exchange_worked_instance():
    a1 = np.diag([1.0, 2.0]).astype(complex)
    a2 = np.array([[3.0, 1.0], [0.0, 4.0]], dtype=complex)
    b1, b2 = tl.transpose_pair(a1, a2)
    assert np.max(np.abs(b1 - np.array([[3.0, 2.0], [0.0, 4.0]]))) < 1e-10
    assert np.max(np.abs(b2 - np.array([[1.0, -1.0], [0.0, 2.0]]))) < 1e-10
    assert np.max(np.abs((b1 + b2) - (a1 + a2))) < 1e-10
    assert np.max(np.abs(b1 @ b2 - a1 @ a2)) < 1e-10
    assert np.allclose(np.sort_complex(np.linalg.eigvals(b1)), [3.0, 4.0], atol=1e-10)
    assert np.allclose(np.sort_complex(np.linalg.eigvals(b2)), [1.0, 2.0], atol=1e-10)
    _ok(2, "worked pair exchange reproduced to 1e-10")


def _random_factor_tuple(rng, m, d):
    while True:
        mats = [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in range(d)]
        try:
            return tl.FactorTuple.from_matrices(mats)
        except tl.errors.TwistlabError:
            continue


def test_criterion_03_factorization_round_trips():
    rng = np.random.default_rng(301)
    checked = 0
    while checked < 50:
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        ft = _random_factor_tuple(rng, m, d)
        poly = tl.multiply(ft)
        try:
            rec = tl.factorize(poly, ft.spectra)
        except tl.errors.NonGeneric:
            continue
        scale = poly.scale()
        err = max(np.linalg.norm(a - b) for a, b in zip(rec.factors, ft.factors))
        assert err < 1e-7 * scale, (m, d, err)
        labels = ft.labels()
        for _ in range(2):
            perm = rng.permutation(len(labels))
            blocks = [[labels[j] for j in perm[k * m : (k + 1) * m]] for k in range(d)]
            try:
                other = tl.factorize(poly, blocks)
            except tl.errors.NonGeneric:
                continue
            back = tl.multiply(other)
            perr = max(np.linalg.norm(a - b) for a, b in zip(back.coeffs, poly.coeffs))
            assert perr < 1e-7 * scale, (m, d, perr)
            assert list(other.spectra) == [tuple(b) for b in blocks]
        checked += 1
    _ok(3, "50 random factorization round trips with alternate partitions")


def test_criterion_04_local_action_m2_n3():
    rng = np.random.default_rng(401)
    ft = _random_factor_tuple(rng, 2, 3)
    poly = tl.multiply(ft)
    scale = poly.scale()
    for _ in range(20):
        s1 = list(rng.permutation(6))
        s2 = list(rng.permutation(6))
        one = tl.act_ordered(s1, ft)
        back = tl.multiply(one)
        perr = max(np.linalg.norm(a - b) for a, b in zip(back.coeffs, poly.coeffs))
        assert perr < 1e-7 * scale, perr
        two = tl.act_ordered(s2, one)
        composed = tl.act_ordered(compose_permutations(s2, s1), ft)
        cerr = max(np.linalg.norm(a - b) for a, b in zip(two.factors, composed.factors))
        assert cerr < 1e-6 * scale, cerr
        assert two.spectra == composed.spectra
    _ok(4, "S6 action on ordered factor pairs: product invariance and group law")


def test_criterion_05_theta_dimensions_and_zeros():
    rng = np.random.default_rng(501)
    taus = [1j, complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.3))]
    for tau in taus:
        for (m, n) in [(1, 1), (1, 2), (2, 1), (3, 1), (2, 2)]:
            params = LatticeParams(tau=tau, m=m, n=n, c=0.23 + 0.11j)
            basis = tl.mtheta_basis(params)
            assert basis.dim == m * m * n, (m, n, tau, basis.dim)
    for (m, n) in [(1, 1), (2, 1), (2, 2)]:
        params = LatticeParams(tau=1j, m=m, n=n, c=0.23 + 0.11j)
        for k in range(10):
            f = tl.random_element(params, rng)
            zs = tl.det_zeros(f)
            assert len(zs.points) == m * n
            assert zs.sum_residual < 1e-6
    _ok(5, "theta space dimensions m^2 n and zero count/sum rule")


def test_criterion_06_theta_round_trips():
    rng = np.random.default_rng(601)
    params = LatticeParams(tau=1j, m=2, n=1, c=0.2 + 0.1j)
    dom = ThetaDomain(2, 1j)
    for _ in range(5):
        f = tl.random_element(params, rng)
        zs = tl.det_zeros(f)
        vs = [_kernel_vector(f.eval(np.array([z]))[0], 2) for z in zs.points]
        f2 = tl.interpolate(params, zs.points, vs)
        x = f.coeffs / np.linalg.norm(f.coeffs)
        y = f2.coeffs / np.linalg.norm(f2.coeffs)
        alignment = abs(np.vdot(x, y))
        assert alignment > 1 - 1e-5, alignment
    for _ in range(3):
        f, g = dom.sample(rng), dom.sample(rng)
        h = tl.multiply_elements(f, g)
        fac = tl.factorize_theta(h, [list(f.zeros), list(g.zeros)], [f.params.c, g.params.c])
        zsamp = np.array([0.13 + 0.21j, 0.41 + 0.58j, 0.73 + 0.39j, 0.27 + 0.81j])
        prod = np.matmul(fac[0].eval(zsamp), fac[1].eval(zsamp)).ravel()
        ref = h.eval(zsamp).ravel()
        s = np.vdot(prod, ref) / np.vdot(prod, prod)
        resid = np.linalg.norm(prod * s - ref) / np.linalg.norm(ref)
        assert resid < 1e-6, resid
    _ok(6, "interpolation identity up to phase and theta factorization round trip")


def test_criterion_07_twisted_yang_baxter():
    maps = [
        tl.builtin_map("q_swap", q_scale=2.0),
        tl.builtin_map("scalar_rational"),
        tl.builtin_map("matrix_rational", m=2),
        tl.builtin_map("matrix_rational", m=3),
        tl.pair_map(2),
        tl.pair_map(3),
        tl.theta_map(1, 1j),
        tl.theta_map(2, 1j),
    ]
    for map_ in maps:
        for name in ("relabel_id", "relabel_swap"):
            r = tl.builtin_R(name, map_, 2)
            inv = tl.verify_inverse(r, samples=100, seed=701, tol=1e-9)
            ty = tl.verify_tybe(r, samples=100, seed=702, tol=1e-9)
            assert inv.passed, (map_.name, name, inv.max_residual)
            assert ty.passed, (map_.name, name, ty.max_residual)
    scalar = tl.builtin_map("scalar_rational")
    bad_inv = tl.verify_inverse(
        tl.RMatrix("scaled", 2, scalar, lambda u, v: 2 * np.eye(4)), samples=10, seed=703
    )
    assert not bad_inv.passed and bad_inv.failures
    rng = np.random.default_rng(704)
    c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    bad_ty = tl.verify_tybe(tl.RMatrix("randconst", 2, scalar, lambda u, v: c), samples=10, seed=705)
    assert not bad_ty.passed and bad_ty.failures
    _ok(7, "relabeling R-matrices pass inverse + twisted Yang-Baxter on all maps; controls fail")


def test_criterion_08_l_and_q_layer():
    scalar = tl.builtin_map("scalar_rational")
    r_id = tl.builtin_R("relabel_id", scalar, 2)
    r_swap = tl.builtin_R("relabel_swap", scalar, 2)
    fixtures = [
        (tl.builtin_L("constant", 2, 1), r_swap),
        (tl.builtin_L("constant", 2, 1), r_id),
        (tl.builtin_L("power", 2, 1), r_swap),
        (tl.builtin_L("power", 2, 2), r_id),
    ]
    residuals = []
    for l_op, r in fixtures:
        rl = tl.verify_L(l_op, r, samples=100, seed=801, tol=1e-9)
        rq = tl.q_check(l_op, scalar, samples=100, seed=802, tol=1e-9)
        assert rl.passed, rl.max_residual
        assert rq.passed, rq.max_residual
        residuals.append(rl.max_residual)
    la = tl.builtin_L("power", 2, 1)
    lb = tl.builtin_L("power", 2, 2)
    ra = tl.verify_L(la, r_id, samples=100, seed=803).max_residual
    rb = tl.verify_L(lb, r_id, samples=100, seed=803).max_residual
    comp = tl.compose_L(la, lb)
    rcomp = tl.verify_L(comp, r_id, samples=100, seed=803)
    assert rcomp.passed
    assert rcomp.max_residual <= 4 * max(ra, rb, 1e-15)
    qcomp = tl.q_check(comp, scalar, samples=100, seed=804, tol=1e-9)
    assert qcomp.passed
    bad = tl.builtin_L("diag_u", 2, 1)
    assert not tl.verify_L(bad, r_id, samples=20, seed=805).passed
    assert not tl.q_check(bad, scalar, samples=20, seed=805).passed
    _ok(8, "L/Q fixtures pass, composition stays within 4x residual, control fails")


def test_criterion_09_gf_layer():
    scalar = tl.builtin_map("scalar_rational")
    sys2 = tl.local_gf_system(scalar, 2, 2)
    rep = tl.gf_verify(sys2, samples=50, seed=901, tol=1e-9)
    assert rep.passed, rep.max_residual
    mu, r = tl.gf_compose(sys2, samples=50, seed=902, tol=1e-8)
    rng = np.random.default_rng(903)
    word = [j + 1 for j in tl.adjacent_word(tl.block_swap_perm(2))]
    for _ in range(50):
        u = sys2.domain.sample(rng)
        v = sys2.domain.sample(rng)
        direct = tl.act(scalar, word, list(u) + list(v))
        got = np.concatenate(mu.apply(u, v))
        assert np.abs(np.array(direct) - got).max() < 1e-8
    ty = tl.verify_tybe(r, samples=25, seed=904, tol=1e-9)
    assert ty.passed
    _ok(9, "trivial GF system verifies; composite matches the block swap word action")


def _cli_text(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_run(argv)
    return code, out.getvalue()


def _cli(argv):
    code, text = _cli_text(argv)
    return code, json.loads(text) if text.strip().startswith("{") else None


def test_criterion_10_cli_determinism_and_exit_codes():
    worked_pair = '{"a1": [[[1,0],[0,0]],[[0,0],[2,0]]], "a2": [[[3,0],[1,0]],[[0,0],[4,0]]]}'
    worked_poly = (
        '{"poly": {"m":2,"coeffs":[[[[4,0],[1,0]],[[0,0],[6,0]]],'
        '[[[3,0],[1,0]],[[0,0],[8,0]]]]},'
        ' "partition": [[[3,0],[4,0]],[[1,0],[2,0]]]}'
    )
    lam = [0.1 + 0.2j, 0.35 + 0.3j]
    c = sum(lam) - 0.5
    interp_in = json.dumps(
        {
            "points": [[z.real, z.imag] for z in lam],
            "vectors": [[[1, 0], [0.3, 0.1]], [[0.2, -0.4], [1, 0]]],
        }
    )
    _, interp_rep = _cli(
        ["theta-interp", "--m", "2", "--n", "1", f"--c={c.real},{c.imag}", "--tau", "0,1", "--in", interp_in]
    )
    elem = json.dumps(interp_rep["artifacts"]["element"])
    mu_in = json.dumps({"f": json.loads(elem), "g": json.loads(_second_element())})
    runs = [
        ["verify-map", "--map", "scalar_rational", "--samples", "50", "--seed", "11"],
        ["act", "--map", "scalar_rational", "--word", "1,2,1", "--in", "[[2,0],[3,0],[5,0]]"],
        ["factor-poly", "--in", worked_poly],
        ["pair-swap", "--in", worked_pair],
        ["theta-basis", "--m", "2", "--n", "1", "--c", "0.3,0.2", "--tau", "0,1"],
        ["theta-zeros", "--in", elem],
        ["theta-interp", "--m", "2", "--n", "1", f"--c={c.real},{c.imag}", "--tau", "0,1", "--in", interp_in],
        ["theta-factor", "--in", _factor_payload()],
        ["theta-mu", "--in", mu_in],
        ["verify-ybe", "--r", "relabel_swap", "--map", "scalar_rational", "--n", "2", "--samples", "25", "--seed", "11"],
        ["verify-l", "--l", "power", "--r", "relabel_id", "--map", "scalar_rational", "--n", "2", "--samples", "25", "--seed", "11"],
        ["q-check", "--l", "constant", "--map", "scalar_rational", "--n", "2", "--samples", "25", "--seed", "11"],
        ["scatter", "--r", "relabel_swap", "--map", "scalar_rational", "--word", "1,2,1", "--n", "2", "--in", "[[2,0],[3,0],[5,0]]"],
        ["gf-verify", "--gf", "trivial", "--base-map", "scalar_rational", "--m", "2", "--n", "2", "--samples", "20", "--seed", "11"],
        ["gf-compose", "--gf", "trivial", "--base-map", "scalar_rational", "--m", "2", "--n", "2", "--samples", "20", "--seed", "11"],
    ]
    for argv in runs:
        code1, out1 = _cli_text(argv)
        code2, out2 = _cli_text(argv)
        assert code1 == code2 == 0, (argv[0], code1, out1)
        assert out1 == out2, argv[0]
    code, rep = _cli(["q-check", "--l", "diag_u", "--map", "scalar_rational", "--n", "2", "--samples", "10"])
    assert code == 1 and rep["status"] == "fail"
    code, rep = _cli(["factor-poly", "--in", '{"poly": {"m":2,"coeffs":[]}, "partition": []}'])
    assert code == 2
    _ok(10, "15 subcommands byte-deterministic; exit codes 0/1/2 honored")


def _second_element():
    lam = [0.4 + 0.1j, 0.05 + 0.33j]
    c = sum(lam) - 0.5
    payload = json.dumps(
        {
            "points": [[z.real, z.imag] for z in lam],
            "vectors": [[[0.5, -0.1], [1, 0]], [[1, 0], [0.2, 0.3]]],
        }
    )
    _, rep = _cli(
        ["theta-interp", "--m", "2", "--n", "1", f"--c={c.real},{c.imag}", "--tau", "0,1", "--in", payload]
    )
    return json.dumps(rep["artifacts"]["element"])


def _factor_payload():
    rng = np.random.default_rng(1001)
    dom = ThetaDomain(2, 1j)
    f, g = dom.sample(rng), dom.sample(rng)
    h = tl.multiply_elements(f, g)
    from twistlab.cli import theta2j, c2j

    return json.dumps(
        {
            "element": theta2j(h),
            "partition": [[c2j(z) for z in f.zeros], [c2j(z) for z in g.zeros]],
            "csplit": [c2j(f.params.c), c2j(g.params.c)],
        }
    )
