"""Command line front end.

Wire format: complex numbers are [re, im] pairs, matrices nested row
arrays, and every report carries the schema tag, the seed, and the exit
status.  Exit codes: 0 pass, 1 verification failure, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

import numpy as np

from . import matpoly, mtheta, transpositions, ybe
from .errors import SchemaError, TwistlabError
from .mtheta import LatticeParams, ThetaElement

SCHEMA = "twistlab/1"


# ---------------------------------------------------------------------------
# JSON codecs


def c2j(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def mat2j(a) -> list:
    a = np.asarray(a)
    return [[c2j(a[i, j]) for j in range(a.shape[1])] for i in range(a.shape[0])]


def j2c(obj, path: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) for x in obj)
    ):
        raise SchemaError(f"{path}: expected a complex number as [re, im]")
    try:
        z = complex(obj[0], obj[1])
    except OverflowError:  # an integer beyond the float range
        z = complex("inf")
    if not cmath.isfinite(z):
        raise SchemaError(f"{path}: expected finite numbers")
    return z


def j2vec(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise SchemaError(f"{path}: expected an array of complex numbers")
    return np.array([j2c(x, f"{path}[{i}]") for i, x in enumerate(obj)])


def j2mat(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{path}: expected a nested array matrix")
    width = None
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise SchemaError(f"{path}[{i}]: expected a row array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{path}[{i}]: ragged row, expected width {width}")
        rows.append([j2c(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(rows, dtype=np.complex128)


def j2poly(obj, path: str) -> matpoly.MatrixPolynomial:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object with 'm' and 'coeffs'")
    if "m" not in obj or "coeffs" not in obj:
        raise SchemaError(f"{path}: missing 'm' or 'coeffs'")
    m = obj["m"]
    if not isinstance(m, int) or m < 1:
        raise SchemaError(f"{path}.m: expected a positive integer")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise SchemaError(f"{path}.coeffs: expected a nonempty array of matrices")
    mats = [j2mat(a, f"{path}.coeffs[{k}]") for k, a in enumerate(coeffs)]
    for k, a in enumerate(mats):
        if a.shape != (m, m):
            raise SchemaError(f"{path}.coeffs[{k}]: expected shape {m}x{m}")
    return matpoly.MatrixPolynomial(m, tuple(mats))


def j2partition(obj, path: str) -> list:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{path}: expected an array of label blocks")
    out = []
    for i, block in enumerate(obj):
        if not isinstance(block, list) or not block:
            raise SchemaError(f"{path}[{i}]: expected a nonempty block of complex labels")
        out.append([j2c(x, f"{path}[{i}][{j}]") for j, x in enumerate(block)])
    return out


def j2theta(obj, path: str) -> ThetaElement:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a theta element object")
    for key in ("tau", "m", "n", "c", "coeffs"):
        if key not in obj:
            raise SchemaError(f"{path}.{key}: missing")
    if not isinstance(obj["m"], int) or not isinstance(obj["n"], int):
        raise SchemaError(f"{path}: m and n must be integers")
    try:
        params = LatticeParams(
            tau=j2c(obj["tau"], f"{path}.tau"),
            m=obj["m"],
            n=obj["n"],
            c=j2c(obj["c"], f"{path}.c"),
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise SchemaError(f"{path}.coeffs: expected an array of complex numbers")
    x = np.array([j2c(v, f"{path}.coeffs[{k}]") for k, v in enumerate(coeffs)])
    dim = mtheta.mtheta_basis(params).dim
    if len(x) != dim:
        raise SchemaError(f"{path}.coeffs: expected {dim} coefficients for this space")
    return ThetaElement(params, x)


def theta2j(elem: ThetaElement) -> dict:
    return {
        "tau": c2j(elem.params.tau),
        "m": elem.params.m,
        "n": elem.params.n,
        "c": c2j(elem.params.c),
        "coeffs": [c2j(v) for v in elem.coeffs],
    }


def load_json(source: str):
    """Parse --in: a literal JSON value, '-' for stdin, or a file path."""
    if source is None:
        raise SchemaError("this subcommand needs --in")
    text = source
    if source == "-":
        text = sys.stdin.read()
    elif not source.lstrip().startswith(("{", "[")):
        if not os.path.exists(source):
            raise SchemaError(f"input file not found: {source}")
        with open(source) as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# shared construction helpers


def parse_complex_flag(text: str, flag: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        z = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise SchemaError(f"{flag}: expected 're,im'") from exc
    if not cmath.isfinite(z):
        raise SchemaError(f"{flag}: expected finite numbers")
    return z


def make_map(args) -> transpositions.TwistedMap:
    name = args.map
    if name in ("q_swap", "scalar_rational"):
        kw = {}
        if name == "q_swap":
            kw["q_scale"] = parse_complex_flag(args.qa, "--qa")
            kw["q_shift"] = parse_complex_flag(args.qb, "--qb")
        return transpositions.builtin_map(name, **kw)
    if name == "matrix_rational":
        return transpositions.builtin_map(name, m=args.m)
    if name == "matpoly_pair":
        return matpoly.pair_map(args.m)
    if name == "theta_mu":
        return mtheta.theta_map(args.m, parse_complex_flag(args.tau, "--tau"))
    raise TwistlabError(f"no built-in map named {name!r}") from None


def parse_word(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise SchemaError("--word: expected comma-separated integers") from exc


def point_to_json(map_, pt):
    kind = map_.domain.kind
    if kind == "scalar":
        return c2j(pt)
    if kind in ("matrix",):
        return mat2j(pt)
    if kind == "vector":
        return [c2j(x) for x in np.asarray(pt)]
    if kind == "theta":
        return theta2j(pt)
    raise TwistlabError(f"cannot serialize points of kind {kind}")


def point_from_json(map_, obj, path):
    kind = map_.domain.kind
    if kind == "scalar":
        return j2c(obj, path)
    if kind == "matrix":
        return j2mat(obj, path)
    if kind == "vector":
        return j2vec(obj, path)
    if kind == "theta":
        elem = j2theta(obj, path)
        return elem.with_zeros(mtheta.det_zeros(elem).points)
    raise SchemaError(f"{path}: unsupported point kind {kind}")


def report_body(artifacts=None, residual: float = 0.0, tol: float = math.inf, reports=()) -> dict:
    """The status, max_residual, failures and artifacts of a handler's report.

    A handler passes what it computed: its artifacts, a residual with the
    tolerance it must meet, or verification reports, which become
    artifacts under their check names and contribute their failing samples.
    """
    passed = residual <= tol and all(r.passed for r in reports)
    return {
        "status": "pass" if passed else "fail",
        "max_residual": max([residual] + [r.max_residual for r in reports]),
        "failures": [{"check": r.check, "sample": i, "residual": v} for r in reports for i, v in r.failures],
        "artifacts": dict(artifacts or {}, **{r.check: r.to_dict() for r in reports}),
    }


# ---------------------------------------------------------------------------
# subcommand handlers; each returns the report body


def cmd_verify_map(args):
    map_ = make_map(args)
    inv = transpositions.verify_involution(map_, args.samples, args.seed, args.tol)
    braid = transpositions.verify_braid(map_, args.samples, args.seed, args.tol)
    return report_body(reports=[inv, braid])


def cmd_act(args):
    map_ = make_map(args)
    data = load_json(args.infile)
    if not isinstance(data, list):
        raise SchemaError("input: expected an array of points")
    pts = [point_from_json(map_, x, f"input[{i}]") for i, x in enumerate(data)]
    out = transpositions.act(map_, parse_word(args.word), pts)
    return report_body({"tuple": [point_to_json(map_, p) for p in out]})


def cmd_factor_poly(args):
    data = load_json(args.infile)
    if not isinstance(data, dict):
        raise SchemaError("input: expected an object with 'poly' and 'partition'")
    poly = j2poly(data.get("poly"), "input.poly")
    partition = j2partition(data.get("partition"), "input.partition")
    ft = matpoly.factorize(poly, partition, tol=args.tol)
    back = matpoly.multiply(ft)
    resid = max(
        float(np.linalg.norm(a - b)) for a, b in zip(back.coeffs, poly.coeffs)
    ) / poly.scale()
    artifacts = {
        "factors": [mat2j(b) for b in ft.factors],
        "spectra": [[c2j(x) for x in s] for s in ft.spectra],
    }
    return report_body(artifacts, resid, max(args.tol, 1e-8))


def cmd_pair_swap(args):
    data = load_json(args.infile)
    if not isinstance(data, dict):
        raise SchemaError("input: expected an object with 'a1' and 'a2'")
    a1 = j2mat(data.get("a1"), "input.a1")
    a2 = j2mat(data.get("a2"), "input.a2")
    b1, b2 = matpoly.transpose_pair(a1, a2, tol=max(args.tol, 1e-8))
    resid = float(np.linalg.norm(b1 @ b2 - a1 @ a2)) / max(
        1.0, float(np.linalg.norm(a1 @ a2))
    )
    return report_body({"b1": mat2j(b1), "b2": mat2j(b2)}, resid, max(args.tol, 1e-8))


def theta_params_from_args(args) -> LatticeParams:
    try:
        return LatticeParams(
            tau=parse_complex_flag(args.tau, "--tau"),
            m=args.m,
            n=args.n,
            c=parse_complex_flag(args.c, "--c"),
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def cmd_theta_basis(args):
    params = theta_params_from_args(args)
    basis = mtheta.mtheta_basis(params)
    return report_body({"dim": basis.dim, "c1": c2j(params.c1), "terms": basis.terms})


def cmd_theta_zeros(args):
    elem = j2theta(load_json(args.infile), "input")
    tol = max(args.tol, 1e-6)
    zs = mtheta.det_zeros(elem, tol=tol)
    artifacts = {"zeros": [c2j(z) for z in zs.points], "sum_residual": zs.sum_residual}
    return report_body(artifacts, zs.sum_residual, tol)


def cmd_theta_interp(args):
    params = theta_params_from_args(args)
    data = load_json(args.infile)
    if not isinstance(data, dict):
        raise SchemaError("input: expected an object with 'points' and 'vectors'")
    pts_j = data.get("points")
    vec_j = data.get("vectors")
    if not isinstance(pts_j, list) or not isinstance(vec_j, list):
        raise SchemaError("input: 'points' and 'vectors' must be arrays")
    pts = [j2c(z, f"input.points[{i}]") for i, z in enumerate(pts_j)]
    vecs = [j2vec(v, f"input.vectors[{i}]") for i, v in enumerate(vec_j)]
    elem = mtheta.interpolate(params, pts, vecs)
    return report_body({"element": theta2j(elem)})


def cmd_theta_factor(args):
    data = load_json(args.infile)
    if not isinstance(data, dict):
        raise SchemaError("input: expected an object with 'element', 'partition', 'csplit'")
    elem = j2theta(data.get("element"), "input.element")
    partition = j2partition(data.get("partition"), "input.partition")
    csplit_j = data.get("csplit")
    if not isinstance(csplit_j, list):
        raise SchemaError("input.csplit: expected an array of complex numbers")
    csplit = [j2c(x, f"input.csplit[{i}]") for i, x in enumerate(csplit_j)]
    factors = mtheta.factorize_theta(elem, partition, csplit, tol=max(args.tol, 1e-6))
    return report_body({"factors": [theta2j(f) for f in factors]})


def cmd_theta_mu(args):
    data = load_json(args.infile)
    if not isinstance(data, dict):
        raise SchemaError("input: expected an object with 'f' and 'g'")
    f = j2theta(data.get("f"), "input.f")
    g = j2theta(data.get("g"), "input.g")
    f1, g1 = mtheta.theta_mu(f, g, tol=max(args.tol, 1e-6))
    return report_body(
        {
            "f1": theta2j(f1),
            "g1": theta2j(g1),
            "f1_zeros": [c2j(z) for z in f1.zeros],
            "g1_zeros": [c2j(z) for z in g1.zeros],
        }
    )


def cmd_verify_ybe(args):
    map_ = make_map(args)
    r = ybe.builtin_R(args.r, map_, args.n)
    inv = ybe.verify_inverse(r, args.samples, args.seed, args.tol)
    tybe = ybe.verify_tybe(r, args.samples, args.seed, args.tol)
    return report_body(reports=[inv, tybe])


def cmd_verify_l(args):
    map_ = make_map(args)
    r = ybe.builtin_R(args.r, map_, args.n)
    l_op = ybe.builtin_L(args.l, args.n, args.w)
    return report_body(reports=[ybe.verify_L(l_op, r, args.samples, args.seed, args.tol)])


def cmd_q_check(args):
    map_ = make_map(args)
    l_op = ybe.builtin_L(args.l, args.n, args.w)
    return report_body(reports=[ybe.q_check(l_op, map_, args.samples, args.seed, args.tol)])


def cmd_scatter(args):
    map_ = make_map(args)
    r = ybe.builtin_R(args.r, map_, args.n)
    data = load_json(args.infile)
    if not isinstance(data, list):
        raise SchemaError("input: expected an array of points")
    pts = [point_from_json(map_, x, f"input[{i}]") for i, x in enumerate(data)]
    op, out = ybe.scattering(r, parse_word(args.word), pts)
    return report_body({"operator": mat2j(op), "params": [point_to_json(map_, p) for p in out]})


def make_gf(args) -> ybe.GFSystem:
    if args.gf != "trivial":
        raise TwistlabError(f"no built-in GF system named {args.gf!r}")
    base = transpositions.builtin_map(args.base_map)
    return ybe.local_gf_system(base, args.m, args.n)


def cmd_gf_verify(args):
    sys_ = make_gf(args)
    return report_body(reports=[ybe.gf_verify(sys_, args.samples, args.seed, args.tol)])


def cmd_gf_compose(args):
    sys_ = make_gf(args)
    map_, r = ybe.gf_compose(sys_, samples=args.samples, seed=args.seed, tol=max(args.tol, 1e-8))
    rng = np.random.default_rng(args.seed)
    u = sys_.domain.sample(rng)
    v = sys_.domain.sample(rng)
    out = map_.apply(u, v)
    return report_body(
        {
            "m": sys_.m,
            "sample_input": [point_to_json(map_, u), point_to_json(map_, v)],
            "sample_output": [point_to_json(map_, p) for p in out],
            "r_sample": mat2j(r(u, v)),
        }
    )


HANDLERS = {
    "verify-map": cmd_verify_map,
    "act": cmd_act,
    "factor-poly": cmd_factor_poly,
    "pair-swap": cmd_pair_swap,
    "theta-basis": cmd_theta_basis,
    "theta-zeros": cmd_theta_zeros,
    "theta-interp": cmd_theta_interp,
    "theta-factor": cmd_theta_factor,
    "theta-mu": cmd_theta_mu,
    "verify-ybe": cmd_verify_ybe,
    "verify-l": cmd_verify_l,
    "q-check": cmd_q_check,
    "scatter": cmd_scatter,
    "gf-verify": cmd_gf_verify,
    "gf-compose": cmd_gf_compose,
}


def _default_seed() -> int:
    raw = os.environ.get("TWISTLAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twistlab")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--seed", type=int, default=_default_seed())
        p.add_argument("--in", dest="infile", default=None, metavar="PATH|-|JSON")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--map", default="scalar_rational")
        p.add_argument("--m", type=int, default=2)
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--c", default="0.3,0.2")
        p.add_argument("--tau", default="0.0,1.0")
        p.add_argument("--qa", default="1,0")
        p.add_argument("--qb", default="0,0")
        p.add_argument("--word", default="1")
        p.add_argument("--r", default="relabel_swap", choices=("relabel_id", "relabel_swap"))
        p.add_argument("--l", default="constant", choices=("constant", "power", "diag_u"))
        p.add_argument("--w", type=int, default=1)
        p.add_argument("--gf", default="trivial")
        p.add_argument("--base-map", dest="base_map", default="scalar_rational")
    return parser


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    print(f"subcommand: {report['subcommand']}")
    print(f"status: {report['status']}")
    print(f"max_residual: {report.get('max_residual')}")
    print(f"seed: {report['seed']} samples: {report['samples']} tol: {report['tol']}")
    if report.get("error"):
        print(f"error: {report['error']['type']}: {report['error']['message']}")
    print("artifacts: " + json.dumps(report.get("artifacts", {}), sort_keys=True))


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.samples < 1 or args.tol <= 0:
        print("samples must be >= 1 and tol > 0", file=sys.stderr)
        return 2
    base = {
        "schema": SCHEMA,
        "subcommand": args.subcommand,
        "seed": args.seed,
        "samples": args.samples,
        "tol": args.tol,
    }
    try:
        body = HANDLERS[args.subcommand](args)
    except TwistlabError as exc:
        base.update(
            status="error",
            max_residual=None,
            failures=[],
            artifacts={},
            error={"type": type(exc).__name__, "message": str(exc)},
        )
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        _emit(base, args.format)
        return 2
    base.update(body)
    _emit(base, args.format)
    return 0 if base["status"] == "pass" else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
