"""The four workloads: inputs made from the seed, ops, and their checks.

A workload is a class built once per process from the twistlab module
and the seed.  Its round(r) method is a generator: it yields Op values,
receives each op's output back, and checks it before yielding the next
one.  Only the Op call is timed, so everything else in the generator
(input generation and the checks) runs outside the timed region.
Round r draws its inputs from the generator seeded with (seed, r), so
one seed gives the same inputs in every run.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

import checks
from checks import Theta, require

HERE = os.path.dirname(os.path.abspath(__file__))


class Op(NamedTuple):
    name: str
    call: Callable


class OpFailed(Exception):
    """The program rejected a valid input (a CLI exit code other than 0)."""


def cplx(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def new_seed(rng) -> int:
    return int(rng.integers(2**31 - 1))


# ---------------------------------------------------------------------------
# theta inputs


def to_cell(z: complex, m: int, tau: complex) -> complex:
    """z moved by a (1/m, tau/m) lattice vector into the cell {x/m + y tau/m}."""
    y = (m * z).imag / tau.imag
    x = (m * z).real - y * tau.real
    return (x - np.floor(x) + (y - np.floor(y)) * tau) / m


def cell_points(rng, m: int, tau: complex, count: int, total: complex, gap: float):
    """count points in the cell {x/m + y tau/m} whose sum is total modulo
    the (1/m, tau/m) lattice, the first count - 1 of them uniform, all at
    least gap apart modulo that lattice; redrawn until they are."""
    while True:
        pts = [(rng.random() + rng.random() * tau) / m for _ in range(count - 1)]
        pts.append(to_cell(total - sum(pts), m, tau))
        if separated(pts, m, tau, gap):
            return pts


def separated(points, m, tau, gap) -> bool:
    return all(
        checks.cell_distance(points[i], points[j], m, tau) > gap
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )


def kernel_vectors(rng, m: int, count: int):
    if m == 1:
        return [np.ones(1, dtype=np.complex128) for _ in range(count)]
    return [cplx(rng, m) for _ in range(count)]


# ---------------------------------------------------------------------------
# theta_verify


class ThetaVerify:
    """Sampling verifiers of the theta transposition at m = 1 and 2.

    Every sample draws a fresh c, so ops share no basis.  Each verifier
    report is checked, and then one exchange the same seed draws is
    recomputed and checked against f g = f1 g1, exchanged zero sets and
    both theta laws.
    """

    SAMPLES = 2
    TOL = {"involution": 1e-9, "braid": 1e-8, "inverse": 1e-9, "tybe": 1e-9}

    def __init__(self, tl, seed: int):
        self.tl = tl
        self.seed = seed
        self.maps = {m: tl.theta_map(m, 1j) for m in (1, 2)}
        self.rs = {m: tl.builtin_R("relabel_swap", self.maps[m], 2) for m in (1, 2)}

    def round(self, r: int):
        tl = self.tl
        rng = np.random.default_rng([self.seed, r])
        for m in (1, 2):
            tm, rm = self.maps[m], self.rs[m]
            for check, fn, subject in (
                ("involution", tl.verify_involution, tm),
                ("braid", tl.verify_braid, tm),
                ("inverse", tl.verify_inverse, rm),
                ("tybe", tl.verify_tybe, rm),
            ):
                seed, tol = new_seed(rng), self.TOL[check]
                rep = yield Op(f"{check}.m{m}", partial(fn, subject, samples=self.SAMPLES, seed=seed, tol=tol))
                checks.verifier_report(rep, check, self.SAMPLES, tol)
                self.check_exchange(tm, seed)

    def check_exchange(self, tm, seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(16):
            f, g = tm.domain.sample(rng), tm.domain.sample(rng)
            if not tm.is_generic(f, g):
                continue
            try:
                f1, g1 = tm.apply(f, g)
            except self.tl.errors.NonGeneric:
                continue
            checks.theta_exchange(
                Theta.of(f), Theta.of(g), f.zeros, g.zeros, Theta.of(f1), Theta.of(g1), f1.zeros, g1.zeros
            )
            return
        raise checks.CheckFailed("no generic theta pair in 16 draws")


# ---------------------------------------------------------------------------
# theta_refactor

TAU_TILT = 0.2 + 1.1j
# dyadic c values keep c + 1/2 - 1/2 exact, so repeated parameters hit the
# basis cache under exact complex equality
C_F, C_G = 0.25 + 0.125j, -0.125 + 0.25j
C_BLOCKS = (0.375 + 0.0625j, 0.125 - 0.125j)
C_3 = 0.125 + 0.125j
C_N3 = 0.375 - 0.125j
C_CHAIN = (0.125 + 0.0625j, 0.375 + 0.25j, -0.25 + 0.1875j)  # c + 1/2 lies in the cell
GAP = 0.06


class ThetaRefactor:
    """Interpolation, determinant zeros, exchanges, factorizations and the
    ordered action at fixed (m, n, tau, c), so the basis cache is warm.

    Zero points vary with the seed; each set's sum is fixed so that the
    c of every element, factor and product repeats exactly.
    """

    def __init__(self, tl, seed: int):
        self.tl = tl
        self.seed = seed
        self.P = tl.LatticeParams
        # at m = n = 1 the zero fixes the element, so the chain is the same
        # in every round and is built once
        one = np.ones(1, dtype=np.complex128)
        self.chain = [tl.interpolate(self.params(1, 1, c), [c + 0.5], [one]) for c in C_CHAIN]

    def params(self, m, n, c, tau=1j):
        return self.P(tau=tau, m=m, n=n, c=c)

    def interp(self, rng, m, n, c, tau=1j, points=None):
        """Yield the interpolation op; return (element, points)."""
        if points is None:
            points = cell_points(rng, m, tau, m * n, c + n / 2.0, GAP)
        vecs = kernel_vectors(rng, m, len(points))
        f = yield Op(f"interpolate.{m}{n}", partial(self.tl.interpolate, self.params(m, n, c, tau), points, vecs))
        checks.interpolation(Theta.of(f), points, vecs)
        return f, points

    def zeros(self, f, points):
        p = f.params
        zs = yield Op(f"det_zeros.{p.m}{p.n}", partial(self.tl.det_zeros, f))
        checks.det_zeros(Theta.of(f), zs.points, prescribed=points)

    def exchange(self, rng, tau):
        m = 2
        while True:
            pf = cell_points(rng, m, tau, m, C_F + 0.5, GAP)
            pg = cell_points(rng, m, tau, m, C_G + 0.5, GAP)
            if separated(pf + pg, m, tau, GAP):
                break
        f, _ = yield from self.interp(rng, m, 1, C_F, tau, pf)
        g, _ = yield from self.interp(rng, m, 1, C_G, tau, pg)
        yield from self.zeros(f, pf)
        f1, g1 = yield Op("theta_mu.21", partial(self.tl.theta_mu, f, g))
        checks.theta_exchange(
            Theta.of(f), Theta.of(g), pf, pg, Theta.of(f1), Theta.of(g1), f1.zeros, g1.zeros
        )

    def round(self, r: int):
        tl = self.tl
        rng = np.random.default_rng([self.seed, r])
        yield from self.exchange(rng, 1j)

        f, pts = yield from self.interp(rng, 3, 1, C_3)
        yield from self.zeros(f, pts)

        while True:
            blocks = [cell_points(rng, 2, 1j, 2, c + 0.5, GAP) for c in C_BLOCKS]
            if separated(blocks[0] + blocks[1], 2, 1j, GAP):
                break
        h, pts = yield from self.interp(rng, 2, 2, sum(C_BLOCKS), 1j, blocks[0] + blocks[1])
        yield from self.zeros(h, pts)
        factors = yield Op("factorize_theta.22", partial(tl.factorize_theta, h, blocks, list(C_BLOCKS)))
        checks.theta_factorization(Theta.of(h), [Theta.of(x) for x in factors], blocks, C_BLOCKS)

        # no det_zeros here: on rare point sets it returns one (1,3) zero
        # 3.5e-7 off (twistbench/README.md, "Seeds")
        yield from self.interp(rng, 1, 3, C_N3)

        yield from self.exchange(rng, TAU_TILT)

        # 3-cycles: two boundary refactorizations each, so every act op
        # does the same amount of work
        chain = self.chain
        s1, s2 = ([[1, 2, 0], [2, 0, 1]][int(k)] for k in rng.integers(2, size=2))
        one = yield Op("act_ordered_theta.11", partial(tl.act_ordered_theta, s1, chain))
        two = yield Op("act_ordered_theta.11", partial(tl.act_ordered_theta, s2, one))
        zs = checks.fresh_points(1j, 12, 17)
        start = checks.product([Theta.of(x) for x in chain], zs)
        for out in (one, two):
            checks.proportional(checks.product([Theta.of(x) for x in out], zs), start, "ordered action product")
            for x in out:
                checks.vanishes_at(Theta.of(x), x.zeros, "acted factor")
        both = tl.act_ordered_theta([s2[s1[i]] for i in range(3)], chain)
        checks.theta_factors_equal([Theta.of(x) for x in two], [Theta.of(x) for x in both], "group law s2.s1")
        require([x.zeros for x in two] == [x.zeros for x in both], "group law s2.s1 moved the zeros differently")


# ---------------------------------------------------------------------------
# algebra

Q_SCALE, Q_SHIFT = 1.5 + 0.5j, 0.25 - 0.5j


class Algebra:
    """Closed-form and matrix maps through every verifier, pair-exchange
    tuple actions, scattering words, matpoly round trips and the S6
    action, and the GF layer at m = 2.  Never enters mtheta or _kernels."""

    # Sample counts give every verifier op about the same cost (some 8 ms
    # here), so most ops form one tight band and the median op time sits
    # inside it rather than in a gap between op kinds.  The pair exchange
    # runs through tuple actions on inputs drawn generic here, not through
    # the sampling verifiers: those draw pairs near pair_map's gate, where
    # rare samples miss the verifier tolerance (see CHANGES.md).
    def __init__(self, tl, seed: int):
        self.tl = tl
        self.seed = seed
        qs = checks.q_swap(Q_SCALE, Q_SHIFT)
        # (label, map, closed form, involution samples, braid samples)
        self.maps = [
            ("q_swap", tl.builtin_map("q_swap", q_scale=Q_SCALE, q_shift=Q_SHIFT), qs, 600, 300),
            ("scalar_rational", tl.builtin_map("scalar_rational"), checks.scalar_rational, 460, 235),
            ("matrix_rational2", tl.builtin_map("matrix_rational", m=2), checks.matrix_rational, 37, 17),
            ("matrix_rational3", tl.builtin_map("matrix_rational", m=3), checks.matrix_rational, 37, 19),
        ]
        self.by_label = {label: (mp, ref) for label, mp, ref, _, _ in self.maps}
        self.pairs = {m: tl.pair_map(m) for m in (2, 3)}
        self.power = tl.builtin_L("power", 2, 1)
        self.gf = tl.local_gf_system(self.by_label["scalar_rational"][0], 2, 2)

    def check_map(self, mp, ref, seed: int) -> None:
        rng = np.random.default_rng(seed)
        u, v = mp.domain.sample(rng), mp.domain.sample(rng)
        checks.map_output(ref, u, v, mp.apply(u, v))

    def verifiers(self, rng):
        tl = self.tl
        for label, mp, ref, n_inv, n_braid in self.maps:
            for check, fn, tol, samples in (
                ("involution", tl.verify_involution, 1e-9, n_inv),
                ("braid", tl.verify_braid, 1e-8, n_braid),
            ):
                seed = new_seed(rng)
                rep = yield Op(f"{check}.{label}", partial(fn, mp, samples=samples, seed=seed, tol=tol))
                checks.verifier_report(rep, check, samples, tol)
                self.check_map(mp, ref, seed)
        # (label, inverse samples, Yang-Baxter samples)
        for label, n_inv, n_tybe in (("scalar_rational", 190, 12), ("matrix_rational2", 60, 7)):
            mp, ref = self.by_label[label]
            r = tl.builtin_R("relabel_swap", mp, 2)
            for check, fn, samples in (("inverse", tl.verify_inverse, n_inv), ("tybe", tl.verify_tybe, n_tybe)):
                seed = new_seed(rng)
                rep = yield Op(f"{check}.{label}", partial(fn, r, samples=samples, seed=seed, tol=1e-9))
                checks.verifier_report(rep, check, samples, 1e-9)
                self.check_map(mp, ref, seed)
        mp, ref = self.by_label["scalar_rational"]
        r_id = tl.builtin_R("relabel_id", mp, 2)
        seed = new_seed(rng)
        rep = yield Op("verify_L", partial(tl.verify_L, self.power, r_id, samples=14, seed=seed, tol=1e-9))
        checks.verifier_report(rep, "l_operator", 14, 1e-9)
        seed = new_seed(rng)
        rep = yield Op("q_check", partial(tl.q_check, self.power, mp, samples=60, seed=seed, tol=1e-9))
        checks.verifier_report(rep, "q_operator", 60, 1e-9)
        self.check_map(mp, ref, seed)

    def words(self, rng):
        tl = self.tl
        reversal6 = [i for k in range(5, 0, -1) for i in range(1, k + 1)]
        for m in (2, 2, 3, 3):
            pts = generic_matrices(rng, m, 6, reversal6)
            out = yield Op(f"act.pair{m}", partial(tl.act, self.pairs[m], reversal6, pts))
            checks.tuple_action(checks.pair_exchange, reversal6, pts, out)
        mp = self.by_label["scalar_rational"][0]
        r = tl.builtin_R("relabel_swap", mp, 2)
        pts = [complex(x) for x in cplx(rng, 6)]
        op, out = yield Op("scattering.6", partial(tl.scattering, r, reversal6, pts))
        checks.scattering(reversal6, 6, 2, op, checks.scalar_rational, pts, out)

    def matpoly(self, rng):
        tl = self.tl
        for m, d in ((2, 3), (3, 2)):
            mats, labels = factor_tuple(rng, m, d)
            poly = tl.MatrixPolynomial(m, tuple(checks.expand(mats)))
            flat = [x for block in labels for x in block]
            perm = rng.permutation(len(flat))
            blocks = [[flat[j] for j in perm[k * m : (k + 1) * m]] for k in range(d)]
            ft = yield Op(f"factorize.{m}{d}", partial(tl.factorize, poly, blocks))
            checks.factorization(poly.coeffs, ft.factors, blocks)
        mats, labels = factor_tuple(rng, 2, 3)
        coeffs = checks.expand(mats)
        ft = tl.FactorTuple(tuple(mats), tuple(tuple(s) for s in labels))
        s1, s2 = [int(x) for x in rng.permutation(6)], [int(x) for x in rng.permutation(6)]
        one = yield Op("act_ordered.23", partial(tl.act_ordered, s1, ft))
        two = yield Op("act_ordered.23", partial(tl.act_ordered, s2, one))
        both = yield Op("act_ordered.23", partial(tl.act_ordered, [s2[s1[i]] for i in range(6)], ft))
        for out in (one, two, both):
            checks.factorization(coeffs, out.factors, out.spectra)
        checks.group_law(two.factors, both.factors, two.spectra, both.spectra)

    def gf_layer(self, rng):
        tl = self.tl
        seed = new_seed(rng)
        rep = yield Op("gf_verify.2", partial(tl.gf_verify, self.gf, samples=12, seed=seed, tol=1e-9))
        checks.verifier_report(rep, "gf_relations", 12, 1e-9)
        seed = new_seed(rng)
        mu, r = yield Op("gf_compose.2", partial(tl.gf_compose, self.gf, samples=6, seed=seed, tol=1e-8))
        u, v = cplx(rng, 2), cplx(rng, 2)
        checks.block_swap(2, checks.scalar_rational, u, v, mu.apply(u, v))
        require(checks.rel_err(r(u, v), np.eye(4)) <= checks.RTOL, "composed identity operators are not the identity")

    def round(self, r: int):
        rng = np.random.default_rng([self.seed, r])
        yield from self.verifiers(rng)
        yield from self.words(rng)
        yield from self.matpoly(rng)
        yield from self.gf_layer(rng)


def generic_matrices(rng, m: int, count: int, word):
    """Matrices whose spectra stay at least 0.2 apart across the tuple, so
    every pair exchange along word is far from its genericity gate, and
    whose images along word (by the reference exchange) all have
    eigenvector matrices of condition at most 100.  Without the second
    condition about one tuple in a few thousand passes through a nearly
    defective pair, where the program's exchange drifts from the
    reference by more than the check's tolerance (a FOUND line in
    CHANGES.md)."""
    while True:
        mats = [cplx(rng, m, m) * 1.5 for _ in range(count)]
        ev = np.concatenate([np.linalg.eigvals(a) for a in mats])
        if min(abs(x - y) for i, x in enumerate(ev) for y in ev[i + 1 :]) > 0.2 and well_conditioned(mats, word):
            return mats


def well_conditioned(mats, word, limit: float = 100.0) -> bool:
    pts = list(mats)
    for i in word:
        pts[i - 1], pts[i] = checks.pair_exchange(pts[i - 1], pts[i])
        if max(np.linalg.cond(np.linalg.eig(a)[1]) for a in (pts[i - 1], pts[i])) > limit:
            return False
    return True


def factor_tuple(rng, m: int, d: int):
    """d factors b = V diag(block) V^-1 with well separated eigenvalues
    and eigenvector matrices of condition at most 10."""
    while True:
        flat = cplx(rng, m * d) * 2.0
        if min(abs(x - y) for i, x in enumerate(flat) for y in flat[i + 1 :]) > 0.3:
            break
    mats, labels = [], []
    for k in range(d):
        while True:
            vmat = cplx(rng, m, m)
            if np.linalg.cond(vmat) < 10:
                break
        block = [complex(x) for x in flat[k * m : (k + 1) * m]]
        mats.append(vmat @ np.diag(block) @ np.linalg.inv(vmat))
        labels.append(block)
    return mats, labels


# ---------------------------------------------------------------------------
# cli_cold

WORKED_PAIR = {"a1": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]], "a2": [[[3, 0], [1, 0]], [[0, 0], [4, 0]]]}
WORKED_POLY = {
    "poly": {"m": 2, "coeffs": [[[[4, 0], [1, 0]], [[0, 0], [6, 0]]], [[[3, 0], [1, 0]], [[0, 0], [8, 0]]]]},
    "partition": [[[3, 0], [4, 0]], [[1, 0], [2, 0]]],
}
TRIPLE = [[2, 0], [3, 0], [5, 0]]
THETA_POINTS = [0.1 + 0.2j, 0.35 + 0.3j]
THETA_VECTORS = [[1, 0.3 + 0.1j], [0.2 - 0.4j, 1]]
MU_POINTS = ([0.12 + 0.18j, 0.31 + 0.4j], [0.4 + 0.1j, 0.05 + 0.33j])
FACTOR_BLOCKS = ([0.1 + 0.05j, 0.3 + 0.35j], [0.2 + 0.4j, 0.45 + 0.15j])


def j(z) -> list:
    return [float(complex(z).real), float(complex(z).imag)]


def unj(x) -> complex:
    return complex(x[0], x[1])


def unj_mat(rows) -> np.ndarray:
    return np.array([[unj(x) for x in row] for row in rows])


def theta_json(elem) -> dict:
    p = elem.params
    return {"tau": j(p.tau), "m": p.m, "n": p.n, "c": j(p.c), "coeffs": [j(x) for x in elem.coeffs]}


class CliCold:
    """All 15 subcommands, each a fresh `python -m twistlab.cli` process
    (started through cli_entry.py, which reports the child's peak memory).

    Theta inputs are elements interpolated here at fixed points and sent
    as JSON; outputs are read back into elements and given the same
    checks as the in-process workloads.
    """

    def __init__(self, tl, seed: int, root: str, env: dict, out_dir: str, traced: bool = False):
        self.tl = tl
        self.seed = seed
        self.root = root
        self.env = env
        self.out_dir = out_dir
        self.traced = traced
        self.peak_rss_kb = 0  # the largest child's VmHWM
        self.cli_times: list[dict] = []
        self.cli_layers: list[dict] = []
        P = tl.LatticeParams
        c = sum(THETA_POINTS) - 0.5
        self.interp_c = c
        self.zero_elem = tl.interpolate(P(tau=1j, m=2, n=1, c=c), THETA_POINTS, THETA_VECTORS)
        self.mu_in = []
        for pts in MU_POINTS:
            cc = sum(pts) - 0.5
            self.mu_in.append(tl.interpolate(P(tau=1j, m=2, n=1, c=cc), pts, [[1, 0.2 + 0.3j], [0.5 - 0.1j, 1]]))
        self.csplit = [sum(b) - 0.5 for b in FACTOR_BLOCKS]
        pts = list(FACTOR_BLOCKS[0]) + list(FACTOR_BLOCKS[1])
        self.factor_elem = tl.interpolate(
            P(tau=1j, m=2, n=2, c=sum(self.csplit)), pts, [[1, 0.4j], [0.3, 1], [1, -0.2], [0.1 + 0.1j, 1]]
        )

    def element(self, obj):
        P = self.tl.LatticeParams
        params = P(tau=unj(obj["tau"]), m=obj["m"], n=obj["n"], c=unj(obj["c"]))
        return self.tl.ThetaElement(params, np.array([unj(x) for x in obj["coeffs"]]))

    def run_cli(self, argv, op_id):
        """One CLI process, `python -m twistlab.cli` through cli_entry.py,
        which reports the child's own peak resident set (and with tracing
        its import and run times and spans) in a file read back here."""
        out = os.path.join(self.out_dir, f"cli-{op_id}.json")
        cmd = [sys.executable, os.path.join(HERE, "cli_entry.py")] + (["--trace"] if self.traced else []) + [out] + argv
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=self.root)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise OpFailed(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        with open(out) as fh:
            rec = json.load(fh)
        os.remove(out)
        if self.traced:
            times = rec["times"]
            times["cli.interp_s"] = wall - times["cli.import_numpy_s"] - times["cli.import_twistlab_s"] - times["cli.run_s"]
            self.cli_times.append(times)
            self.cli_layers.append(rec)
        else:
            self.peak_rss_kb = max(self.peak_rss_kb, rec["peak_rss_kb"])
        return json.loads(proc.stdout)

    def round(self, r: int):
        rng = np.random.default_rng([self.seed, r])
        op_counter = itertools.count()

        def cli(argv):
            return Op(argv[0], partial(self.run_cli, argv, f"{r}-{next(op_counter)}"))

        def seeded():
            return str(new_seed(rng) % 100000)

        def report(rep, sub):
            require(rep.get("schema") == "twistlab/1", f"{sub}: schema tag {rep.get('schema')!r}")
            require(rep.get("subcommand") == sub and rep.get("status") == "pass", f"{sub}: status {rep.get('status')!r}")

        def verified(rep, sub, names, samples, tol=1e-8):
            report(rep, sub)
            for name in names:
                art = rep["artifacts"][name]
                require(art["samples"] == samples and art["status"] == "pass", f"{sub}: {name} report")
                require(art["max_residual"] <= tol and not art["failures"], f"{sub}: {name} residual")

        rep = yield cli(["verify-map", "--map", "scalar_rational", "--samples", "20", "--seed", seeded()])
        verified(rep, "verify-map", ["involution", "braid"], 20)

        rep = yield cli(["act", "--map", "scalar_rational", "--word", "1,2,1", "--in", json.dumps(TRIPLE)])
        report(rep, "act")
        got = [unj(x) for x in rep["artifacts"]["tuple"]]
        checks.tuple_action(checks.scalar_rational, [1, 2, 1], [unj(x) for x in TRIPLE], got)

        rep = yield cli(["factor-poly", "--in", json.dumps(WORKED_POLY)])
        report(rep, "factor-poly")
        coeffs = [unj_mat(a) for a in WORKED_POLY["poly"]["coeffs"]]
        blocks = [[unj(x) for x in b] for b in WORKED_POLY["partition"]]
        checks.factorization(coeffs, [unj_mat(b) for b in rep["artifacts"]["factors"]], blocks)

        rep = yield cli(["pair-swap", "--in", json.dumps(WORKED_PAIR)])
        report(rep, "pair-swap")
        a1, a2 = unj_mat(WORKED_PAIR["a1"]), unj_mat(WORKED_PAIR["a2"])
        checks.pair_swap(a1, a2, unj_mat(rep["artifacts"]["b1"]), unj_mat(rep["artifacts"]["b2"]))

        rep = yield cli(["theta-basis", "--m", "2", "--n", "1", "--c", "0.3,0.2", "--tau", "0,1"])
        report(rep, "theta-basis")
        require(rep["artifacts"]["dim"] == 4, "theta-basis: dimension is not m^2 n = 4")
        require(abs(unj(rep["artifacts"]["c1"]) - (2 * (0.3 + 0.2j) - 1j)) < 1e-12, "theta-basis: wrong c1")

        rep = yield cli(["theta-zeros", "--in", json.dumps(theta_json(self.zero_elem))])
        report(rep, "theta-zeros")
        zeros = [unj(z) for z in rep["artifacts"]["zeros"]]
        checks.det_zeros(Theta.of(self.zero_elem), zeros, prescribed=THETA_POINTS)

        payload = {"points": [j(z) for z in THETA_POINTS], "vectors": [[j(x) for x in v] for v in THETA_VECTORS]}
        c = self.interp_c
        rep = yield cli(["theta-interp", "--m", "2", "--n", "1", f"--c={c.real},{c.imag}", "--tau", "0,1",
                         "--in", json.dumps(payload)])
        report(rep, "theta-interp")
        checks.interpolation(Theta.of(self.element(rep["artifacts"]["element"])), THETA_POINTS, THETA_VECTORS)

        payload = {
            "element": theta_json(self.factor_elem),
            "partition": [[j(z) for z in b] for b in FACTOR_BLOCKS],
            "csplit": [j(x) for x in self.csplit],
        }
        rep = yield cli(["theta-factor", "--in", json.dumps(payload)])
        report(rep, "theta-factor")
        factors = [Theta.of(self.element(x)) for x in rep["artifacts"]["factors"]]
        checks.theta_factorization(Theta.of(self.factor_elem), factors, FACTOR_BLOCKS, self.csplit)

        f, g = self.mu_in
        rep = yield cli(["theta-mu", "--in", json.dumps({"f": theta_json(f), "g": theta_json(g)})])
        report(rep, "theta-mu")
        art = rep["artifacts"]
        checks.theta_exchange(
            Theta.of(f), Theta.of(g), MU_POINTS[0], MU_POINTS[1],
            Theta.of(self.element(art["f1"])), Theta.of(self.element(art["g1"])),
            [unj(z) for z in art["f1_zeros"]], [unj(z) for z in art["g1_zeros"]],
        )

        rep = yield cli(["verify-ybe", "--r", "relabel_swap", "--map", "scalar_rational", "--n", "2",
                         "--samples", "15", "--seed", seeded()])
        verified(rep, "verify-ybe", ["inverse", "tybe"], 15)
        rep = yield cli(["verify-l", "--l", "power", "--r", "relabel_id", "--map", "scalar_rational", "--n", "2",
                         "--samples", "15", "--seed", seeded()])
        verified(rep, "verify-l", ["l_operator"], 15)
        rep = yield cli(["q-check", "--l", "constant", "--map", "scalar_rational", "--n", "2",
                         "--samples", "15", "--seed", seeded()])
        verified(rep, "q-check", ["q_operator"], 15)

        rep = yield cli(["scatter", "--r", "relabel_swap", "--map", "scalar_rational", "--word", "1,2,1",
                         "--n", "2", "--in", json.dumps(TRIPLE)])
        report(rep, "scatter")
        checks.scattering([1, 2, 1], 3, 2, unj_mat(rep["artifacts"]["operator"]), checks.scalar_rational,
                          [unj(x) for x in TRIPLE], [unj(x) for x in rep["artifacts"]["params"]])

        rep = yield cli(["gf-verify", "--gf", "trivial", "--base-map", "scalar_rational", "--m", "2", "--n", "2",
                         "--samples", "10", "--seed", seeded()])
        verified(rep, "gf-verify", ["gf_relations"], 10, 1e-8)
        rep = yield cli(["gf-compose", "--gf", "trivial", "--base-map", "scalar_rational", "--m", "2", "--n", "2",
                         "--samples", "15", "--seed", seeded()])
        report(rep, "gf-compose")
        art = rep["artifacts"]
        u, v = ([unj(x) for x in p] for p in art["sample_input"])
        got = [[unj(x) for x in p] for p in art["sample_output"]]
        checks.block_swap(2, checks.scalar_rational, u, v, got)
        require(checks.rel_err(unj_mat(art["r_sample"]), np.eye(4)) <= checks.RTOL, "gf-compose: R is not the identity")


WORKLOADS = {
    "theta_verify": ThetaVerify,
    "theta_refactor": ThetaRefactor,
    "algebra": Algebra,
    "cli_cold": CliCold,
}
