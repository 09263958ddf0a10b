"""Exact arithmetic for Euler's magic matrices.

A square matrix M is Euler magic when M * M^t = gamma * I for some nonzero
gamma and both the diagonal and the anti-diagonal squared-entry sums equal
gamma; it is proper when all n^2 entry squares are pairwise distinct, in
which case squaring entrywise yields a magic square of squares.  This
package verifies such matrices exactly, reproduces the classical 4x4 and an
8x8 example together with a four-parameter proper family, certifies the 3x3
nonexistence via polynomial identities, builds improper constructions for
every n >= 4, and runs seeded searches in the 5x5 and 8x8 regimes.
"""

from .matrices import (
    Matrix,
    SingularMatrixError,
    determinant,
    format_matrix_text,
    identity,
    mat_add,
    mat_inverse,
    mat_mul,
    mat_scale,
    matrix_to_json_dict,
    parse_matrix_text,
    parse_rational,
    rescale_primitive,
    transpose,
)
from .poly import MultiPoly, parse_poly
from .verify import (
    MagicSquareReport,
    VerifyReport,
    magic_square_of_squares,
    report_to_json_dict,
    report_to_text,
    verify,
)
from .cayley import (
    CertificateLine,
    cayley,
    cayley3_forms,
    certificate_to_json,
    certificate_to_text,
    inverse_cayley,
    nonexistence_certificate,
    ortho_reduce,
    sign_diagonal,
    skew_from_upper,
)
from .octonion import (
    LEFT_VARS,
    RIGHT_VARS,
    gamma_product,
    left_matrix,
    right_matrix,
    sum_of_squares,
)
from .family8 import (
    DiagForms,
    FAMILY_LEFT,
    FamilyResult,
    SolveChainResult,
    Witness,
    WitnessReport,
    diag_forms,
    eliminate_w,
    enumerate_w1,
    family_result_to_json_dict,
    four_parameter_family,
    improper_witnesses,
    solve_chain,
    symbolic_diag_forms,
    verified_product,
    w1_check,
    w1_coefficient_checker,
)
from .permutations import (
    Permutation,
    construction_permutation,
    perm_matrix,
    two_by_two_family,
)
from .search import (
    Candidate,
    SearchConfig,
    SearchResult,
    Xorshift64Star,
    candidate_to_json_dict,
    canonical_json,
    search5_cayley,
    search8_seeded,
    stream_seed,
    summary_to_json_dict,
)

__version__ = "0.1.0"
