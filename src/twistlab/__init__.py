"""twistlab: twisted transpositions, refactorization of matrix
polynomials and matrix theta functions, and verification engines for
the twisted Yang-Baxter relation and its operator structures."""

from . import errors
from .linalg import (
    GENERICITY_TOL,
    canonical_order,
    eigen,
    nullspace_vector,
    poly_roots,
    solve_sylvester,
)
from .matpoly import (
    FactorTuple,
    MatrixPolynomial,
    act_ordered,
    factorize,
    matrix_polynomial,
    multiply,
    pair_map,
    spectrum,
    transpose_pair,
)
from .mtheta import (
    LatticeParams,
    MThetaBasis,
    ThetaElement,
    ZeroSet,
    act_ordered_theta,
    clifford_pair,
    det_zeros,
    factorize_theta,
    interpolate,
    mtheta_basis,
    multiply_elements,
    random_element,
    theta_map,
    theta_mu,
    zero_sum_residual,
)
from .report import VerificationReport
from .transpositions import (
    PointDomain,
    TwistedMap,
    act,
    adjacent_word,
    builtin_map,
    chain_invariants,
    compose_permutations,
    verify_braid,
    verify_involution,
    word_permutation,
)
from .ybe import (
    GFSystem,
    LOperator,
    RMatrix,
    block_swap_perm,
    builtin_L,
    builtin_R,
    compose_L,
    gf_compose,
    gf_verify,
    local_gf_system,
    place,
    q_check,
    q_of,
    scattering,
    verify_inverse,
    verify_L,
    verify_tybe,
)

__version__ = "0.1.0"
