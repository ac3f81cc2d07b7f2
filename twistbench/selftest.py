"""Tests of the benchmark itself.

    python3 -m pytest -q twistbench/selftest.py

Every output check must reject a corrupted copy of a good output (the
negative controls), the trace wrappers must see calls made through the
package re-exports and through importing modules, and every workload
must run to the end in quick mode (one round) with all checks passing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import twistlab as tl  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, Theta  # noqa: E402

BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def rejects(fn, *args):
    with pytest.raises(CheckFailed):
        fn(*args)


def bumped(a, index, by=1e-3):
    a = np.array(a, dtype=np.complex128)
    a[index] += by
    return a


# ---------------------------------------------------------------------------
# closed forms, pair exchange, words


def test_verifier_report_controls():
    rep = tl.verify_involution(tl.builtin_map("scalar_rational"), samples=20, seed=1)
    checks.verifier_report(rep, "involution", 20, 1e-9)
    rejects(checks.verifier_report, rep, "braid", 20, 1e-9)
    rejects(checks.verifier_report, rep, "involution", 21, 1e-9)
    rep.max_residual = 2e-9
    rejects(checks.verifier_report, rep, "involution", 20, 1e-9)
    rep.max_residual = 0.0
    rep.failures.append((3, 1.0))
    rejects(checks.verifier_report, rep, "involution", 20, 1e-9)


@pytest.mark.parametrize("name", ["q_swap", "scalar_rational", "matrix_rational"])
def test_map_output_controls(name):
    alg = workloads.Algebra(tl, 0)
    label = {"matrix_rational": "matrix_rational3"}.get(name, name)
    mp, ref = alg.by_label[label]
    rng = np.random.default_rng(5)
    u, v = mp.domain.sample(rng), mp.domain.sample(rng)
    phi, psi = mp.apply(u, v)
    checks.map_output(ref, u, v, (phi, psi))
    index = (0, 0) if np.ndim(phi) == 2 else ()
    rejects(checks.map_output, ref, u, v, (bumped(phi, index), psi))


def test_pair_swap_controls():
    a1 = np.array([[1, 0], [0, 2]], dtype=complex)
    a2 = np.array([[3, 1], [0, 4]], dtype=complex)
    b1, b2 = tl.transpose_pair(a1, a2)
    checks.pair_swap(a1, a2, b1, b2)
    rejects(checks.pair_swap, a1, a2, bumped(b1, (0, 1)), b2)
    rejects(checks.pair_swap, a1, a2, b2, b1)


def test_tuple_action_and_scattering_controls():
    pts = [2 + 0j, 3 + 0j, 5 + 0j, 0.5 + 1j]
    word = [1, 2, 3, 1, 2, 1]
    mp = tl.builtin_map("scalar_rational")
    out = tl.act(mp, word, pts)
    checks.tuple_action(checks.scalar_rational, word, pts, out)
    rejects(checks.tuple_action, checks.scalar_rational, word, pts, list(out[:-1]) + [out[-1] + 1e-3])
    r = tl.builtin_R("relabel_swap", mp, 2)
    op, got = tl.scattering(r, word, pts)
    checks.scattering(word, 4, 2, op, checks.scalar_rational, pts, got)
    rejects(checks.scattering, word, 4, 2, np.eye(16), checks.scalar_rational, pts, got)
    rejects(checks.scattering, word[:-1], 4, 2, op, checks.scalar_rational, pts, got)


def test_block_swap_controls():
    sys2 = tl.local_gf_system(tl.builtin_map("scalar_rational"), 2, 2)
    mu, _ = tl.gf_compose(sys2, samples=5, seed=1)
    u, v = np.array([0.3 + 0.2j, -0.4 + 0.1j]), np.array([0.7 - 0.3j, 0.2 + 0.5j])
    out = mu.apply(u, v)
    checks.block_swap(2, checks.scalar_rational, u, v, out)
    rejects(checks.block_swap, 2, checks.scalar_rational, u, v, (out[1], out[0]))


# ---------------------------------------------------------------------------
# matrix polynomials


def test_factorization_controls():
    rng = np.random.default_rng(3)
    mats, labels = workloads.factor_tuple(rng, 2, 3)
    coeffs = checks.expand(mats)
    poly = tl.MatrixPolynomial(2, tuple(coeffs))
    assert max(np.linalg.norm(a - b) for a, b in zip(coeffs, tl.multiply(mats).coeffs)) < 1e-12
    ft = tl.factorize(poly, labels)
    checks.factorization(coeffs, ft.factors, labels)
    swapped = [ft.factors[1], ft.factors[0], ft.factors[2]]
    rejects(checks.factorization, coeffs, swapped, [labels[1], labels[0], labels[2]])
    rejects(checks.factorization, coeffs, [bumped(ft.factors[0], (1, 0))] + list(ft.factors[1:]), labels)
    rejects(checks.factorization, coeffs, ft.factors, [labels[0], labels[2], labels[1]])


def test_group_law_controls():
    rng = np.random.default_rng(4)
    mats, labels = workloads.factor_tuple(rng, 2, 3)
    ft = tl.FactorTuple(tuple(mats), tuple(tuple(s) for s in labels))
    s1, s2 = [1, 0, 2, 3, 5, 4], [2, 3, 0, 1, 4, 5]
    two = tl.act_ordered(s2, tl.act_ordered(s1, ft))
    both = tl.act_ordered([s2[s1[i]] for i in range(6)], ft)
    checks.group_law(two.factors, both.factors, two.spectra, both.spectra)
    rejects(checks.group_law, two.factors, ft.factors, two.spectra, both.spectra)
    rejects(checks.group_law, two.factors, both.factors, two.spectra, ft.spectra)


# ---------------------------------------------------------------------------
# theta functions

POINTS = [0.1 + 0.2j, 0.35 + 0.3j]
VECTORS = [np.array([1, 0.3 + 0.1j]), np.array([0.2 - 0.4j, 1])]


@pytest.fixture(scope="module")
def elem():
    c = sum(POINTS) - 0.5
    return tl.interpolate(tl.LatticeParams(tau=1j, m=2, n=1, c=c), POINTS, VECTORS)


def test_det_zeros_controls(elem):
    f = Theta.of(elem)
    zs = tl.det_zeros(elem).points
    assert checks.winding_count(f, zs) == 2
    checks.det_zeros(f, zs, prescribed=POINTS)
    rejects(checks.det_zeros, f, [zs[0] + 1e-3, zs[1]])
    rejects(checks.det_zeros, f, [zs[0]])
    rejects(checks.det_zeros, f, zs, [POINTS[0] + 1e-3, POINTS[1]])
    # one extra zero per cell: z - 0.2 - 0.2i on the diagonal
    extra = Theta(lambda z: elem.eval(z) * (np.sin(2 * np.pi * (z - 0.2 - 0.2j)))[:, None, None],
                  2, 1, elem.params.c, 1j)
    rejects(checks.det_zeros, extra, zs)


def test_theta_law_controls(elem):
    f = Theta.of(elem)
    checks.theta_laws(f)
    p = elem.params
    rejects(checks.theta_laws, Theta(lambda z: elem.eval(z + 0.01), 2, 1, p.c, p.tau))
    rejects(checks.theta_laws, Theta(f.ev, 2, 1, p.c + 0.01, p.tau))
    a = np.array([[1, 0.5], [0, 1]])
    rejects(checks.theta_laws, Theta(lambda z: a @ elem.eval(z) @ np.linalg.inv(a), 2, 1, p.c, p.tau))


def test_interpolation_controls(elem):
    f = Theta.of(elem)
    checks.interpolation(f, POINTS, VECTORS)
    rejects(checks.interpolation, f, [POINTS[0] + 1e-3, POINTS[1]], VECTORS)
    rejects(checks.interpolation, f, POINTS, [VECTORS[0] + np.array([0, 1e-3]), VECTORS[1]])


def test_theta_exchange_controls():
    dom = tl.mtheta.ThetaDomain(2, 1j)
    rng = np.random.default_rng(8)
    f, g = dom.sample(rng), dom.sample(rng)
    f1, g1 = tl.theta_mu(f, g)
    T = Theta.of
    checks.theta_exchange(T(f), T(g), f.zeros, g.zeros, T(f1), T(g1), f1.zeros, g1.zeros)
    rejects(checks.theta_exchange, T(f), T(g), f.zeros, g.zeros, T(g1), T(f1), g1.zeros, f1.zeros)
    rejects(checks.theta_exchange, T(f), T(g), f.zeros, g.zeros, T(f1), T(g1), f.zeros, g.zeros)
    moved = [f1.zeros[0] + 1e-3, f1.zeros[1]]
    rejects(checks.theta_exchange, T(f), T(g), f.zeros, g.zeros, T(f1), T(g1), moved, g1.zeros)


def test_theta_factorization_controls():
    rng = np.random.default_rng(9)
    blocks = [workloads.cell_points(rng, 2, 1j, 2, c + 0.5, 0.06) for c in workloads.C_BLOCKS]
    params = tl.LatticeParams(tau=1j, m=2, n=2, c=sum(workloads.C_BLOCKS))
    h = tl.interpolate(params, blocks[0] + blocks[1], workloads.kernel_vectors(rng, 2, 4))
    factors = tl.factorize_theta(h, blocks, list(workloads.C_BLOCKS))
    fs = [Theta.of(x) for x in factors]
    checks.theta_factorization(Theta.of(h), fs, blocks, workloads.C_BLOCKS)
    rejects(checks.theta_factorization, Theta.of(h), fs[::-1], blocks[::-1], workloads.C_BLOCKS[::-1])
    rejects(checks.theta_factorization, Theta.of(h), fs, blocks[::-1], workloads.C_BLOCKS)
    checks.theta_factors_equal(fs, fs, "same")
    rejects(checks.theta_factors_equal, fs, fs[::-1], "swapped")


def test_cli_report_controls():
    wl = workloads.CliCold(tl, 0, ROOT, {}, os.path.join(ROOT, ".bench_out"))
    gen = wl.round(0)
    op = next(gen)
    assert op.name == "verify-map"
    good = {"schema": "twistlab/1", "subcommand": "verify-map", "status": "pass", "artifacts": {
        name: {"samples": 20, "status": "pass", "max_residual": 0.0, "failures": []} for name in ("involution", "braid")}}
    assert gen.send(good).name == "act"
    for corrupt in (dict(good, schema="twistlab/0"), dict(good, status="fail")):
        gen = wl.round(0)
        next(gen)
        with pytest.raises(CheckFailed):
            gen.send(corrupt)


# ---------------------------------------------------------------------------
# tracing


def test_wrappers_reach_every_binding():
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        tracer.active = True
        a1 = np.array([[1, 0], [0, 2]], dtype=complex)
        a2 = np.array([[3, 1], [0, 4]], dtype=complex)
        tl.transpose_pair(a1, a2)  # package re-export; calls matpoly's solve_sylvester binding
        tl.matpoly.transpose_pair(a1, a2)
        tl.linalg.solve_sylvester(a2, a1, np.eye(2))
        tl.solve_sylvester(a2, a1, np.eye(2))
        elem = tl.interpolate(tl.LatticeParams(tau=1j, m=2, n=1, c=sum(POINTS) - 0.5), POINTS, VECTORS)
        tl.mtheta.det_zeros(elem)
        tl.det_zeros(elem)
        tl.mtheta._kernel_vector(np.array([[1, 2], [2, 4]], dtype=complex), 2)  # mtheta's nullspace_vector
        mp = tl.builtin_map("scalar_rational")
        mp.apply(0.3 + 0.1j, 0.2 - 0.4j)
        tracer.active = False
        tl.det_zeros(elem)  # outside an op: not recorded
    finally:
        undo()
    calls = tracer.calls
    assert calls["matpoly.transpose_pair"] == 2
    assert calls["linalg.solve_sylvester"] == 4
    assert calls["mtheta.det_zeros"] == 2
    assert calls["mtheta.interpolate"] == 1
    assert calls["_kernels.theta_eval"] > 0  # through mtheta's binding
    assert calls["linalg.nullspace_vector"] == 1
    assert calls["mtheta.ThetaElement.det"] > 0
    assert calls["transpositions.TwistedMap.apply"] == 1
    # undo restored the plain functions everywhere
    assert not hasattr(tl.det_zeros, "__wrapped__") and not hasattr(tl.matpoly.solve_sylvester, "__wrapped__")


def test_layer_metric_names_match_benchmark_json():
    names = set(tracing.LAYER_METRICS) | set(tracing.CLI_METRICS)
    listed = {m["name"]: m for m in BENCH["per_layer"]}
    assert names == set(listed)
    for name, (unit, better, _) in tracing.LAYER_METRICS.items():
        assert (listed[name]["unit"], listed[name]["better"]) == (unit, better)


# ---------------------------------------------------------------------------
# the command, in quick mode


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("twistbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_quick_mode(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def traced(workload, seed):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1", "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def test_traced_counts_repeat_and_algebra_skips_theta():
    one, two = traced("algebra", 4), traced("algebra", 4)
    counts = [k for k, v in one.items() if v["unit"] == "count"]
    assert {k: one[k] for k in counts} == {k: two[k] for k in counts}
    assert set(one) == {m["name"] for m in BENCH["per_layer"]}
    assert one["mtheta.basis_lookups"]["value"] == 0 and one["kernels.theta_eval.calls"]["value"] == 0
    assert one["transpositions.apply.calls"]["value"] > 0
    a, b = traced("theta_refactor", 4), traced("theta_refactor", 4)
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["mtheta.det_zeros.calls"]["value"] > 0


class Broken:
    """A workload whose every round is two ops; `bad` raises or returns an
    output that fails its check."""

    def __init__(self, bad):
        self.bad = bad
        self.rounds = 0

    def round(self, r):
        self.rounds += 1
        out = yield workloads.Op("good", lambda: 1)
        checks.require(out == 1, "good op")
        out = yield workloads.Op("bad", self.bad)
        checks.require(out == 1, "bad op")


def raises():
    raise ValueError("rejected a valid input")


@pytest.mark.parametrize("bad, failed, correct", [(raises, 1, True), (lambda: 2, 0, False)])
def test_first_failure_ends_the_run(bad, failed, correct):
    import worker

    wl = Broken(bad)
    durations, attempted, n_failed, ok, rounds = worker.run_rounds(wl, 60.0, 0, None, lambda msg: None)
    assert (n_failed, ok, rounds, wl.rounds, attempted) == (failed, correct, 1, 1, 2)
    assert len(durations) == 1 + (not failed)


@pytest.mark.parametrize("failed, correct", [(1, True), (0, False)])
def test_failure_makes_the_command_exit_nonzero(monkeypatch, capsys, failed, correct):
    import run

    res = {"ready": 0.0, "attempted": 2, "failed": failed, "correct": correct, "rounds": 1, "ops": 1,
           "op_p90_s": 0.01, "peak_rss_mb": 40.0}
    monkeypatch.setattr(run, "start_worker", lambda args, env, deadline: res)
    assert run.main(["--workload", "algebra", "--seed", "1", "--seconds", "1"]) == 1
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (out["failed"], out["correct"]) == (failed, correct)


def test_kind_percentile_is_per_kind():
    import worker

    # half the ops near 10 ms, half near 40 ms: the pooled median sits on
    # the edge between the two kinds, the per-kind one does not
    fast = [("fast", 0.010 + 1e-4 * k) for k in range(10)]
    slow = [("slow", 0.040 + 1e-4 * k) for k in range(10)]
    assert abs(worker.kind_percentile(fast + slow, 0.5) - (0.01045 * 0.04045) ** 0.5) < 1e-12
    assert worker.kind_percentile(fast[:9] + slow, 0.5) < 0.0206
    assert worker.percentile([t for _, t in fast[:9] + slow], 0.5) >= 0.04


def test_op_times_are_cpu_times():
    import worker

    class Sleepy:
        def round(self, r):
            yield workloads.Op("sleep", lambda: time.sleep(0.2))

    durations, *_ = worker.run_rounds(Sleepy(), 0.0, 1, None, lambda msg: None)
    assert durations[0][0] == "sleep" and durations[0][1] < 0.05


def test_fails_without_sources():
    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "twistbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_bench("--workload", "algebra", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare)
