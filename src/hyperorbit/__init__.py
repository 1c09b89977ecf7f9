"""Desk-scale numerics for multilinear hypercyclic dynamics.

Log-domain arithmetic that survives Fibonacci-exponent weight growth, orbit
engines for the recursive and the tree orbit notions, and certified builders
for universal vectors, steering preimages, and conjugated operators.
"""

from .arith import (
    FibCache,
    IdentityReport,
    LogComplex,
    check_fib_identities,
    fib,
    logc_add,
    logc_mul,
)
from .conjugation import (
    FactorMap,
    HostBilinear,
    MarkushevichBasis,
    build_N,
    commutation_check,
    host_basis,
    pushforward_orbit_check,
)
from .constructions import (
    GapSchedule,
    JuliaProbe,
    QBlocks,
    companion_pair,
    companion_x,
    delta_d_pair,
    gap_schedule_search,
    hc_Q_blocks,
    julia_ray_bisection,
    phi_map,
    steer_target_CN,
    symmetric_preimage,
    universal_y_l1,
    weight_identity_certificates,
)
from .dynamics import (
    MultilinearSpec,
    OPERATORS,
    OrbitBC,
    OrbitClass,
    OrbitTreeGK,
    WeightLedger,
    apply,
    classify_orbit,
    closed_form_state,
    gk_tree,
    iterate_bc,
    ledger,
    make_operator,
    verify_weight_collapse,
)
from .errors import (
    BadBracketError,
    DegreeCapError,
    HyperorbitError,
    ParameterRangeError,
    SearchOverflowError,
    UnsupportedFormError,
    WrongSpaceError,
    ZeroCoordinateError,
)
from .report import Check
from .spaces import (
    SeqVector,
    SpaceTag,
    WeightSeq,
    backward_shift,
    derivative,
    eval_functional,
    forward_shift,
    norm,
    read_vector,
    translate,
    vector_from_json,
    vector_to_json,
    write_vector,
)

__version__ = "0.1.0"
