"""hessform: similarity of nonnegative/Metzler matrices to nonnegative/Metzler
upper Hessenberg form.

One question per input: is it similar, through a nonnegative ``T``, to a
Hessenberg form in the signs of its mode?  The answer is a
:class:`SimilarityCertificate` that :func:`verify_certificate` re-checks, or a
structured :class:`Obstruction`.  The exact constructions answer it for Metzler
n = 3, 4 and nonnegative n = 3 (:func:`metzler_hess_3`, :func:`metzler_hess_4`,
:func:`nonneg_hess_3`), the rank-one-minus-shift family obstructs it for
nonnegative n >= 3, and the Krylov-frame search :func:`altproj_hess`, which
tries the exact permutation step first, takes every other input, n <= 2
included, and may end without an answer.  Beside it: the controller forms
:func:`dt_hess_2` and :func:`ct_hess_3`, the planar discrete-time analysis
:func:`dt_hess_feasibility_3`, and the spectral, Perron and cone kernels
beneath them.  The ``hessform`` command line sends each question one way.
"""

__version__ = "0.1.0"

from .errors import (
    ClusterAmbiguityError,
    ConstructionDefect,
    HessformError,
    IllConditionedWarning,
    InputError,
    NumericalError,
    PerronVectorError,
)
from .linalg import (
    ClassReport,
    PerronData,
    SortedSpectrum,
    classify,
    geometric_multiplicity,
    jordan_like_form,
    permutation_to_hessenberg,
    perron_pair,
    sorted_spectrum,
)
from .cones import (
    ConeRep,
    CoverCertificate,
    CoverDecision,
    Membership,
    SimplexPoint,
    Verdict,
    boundary_shift,
    cone_membership,
    simplex_project,
    triangle_cover_decision,
    unproject,
    verify_cover_certificate,
)
from .transforms import (
    Mode,
    Obstruction,
    ObstructionKind,
    RankOneShiftForm,
    SimilarityCertificate,
    ct_hess_3,
    diag_commuting_transform,
    dt_hess_2,
    eigvec_b_transform,
    fix_b_boundary,
    make_certificate,
    metzler_hess_3,
    metzler_hess_4,
    nonneg_hess_3,
    rank_one_shift_detect,
    verify_certificate,
)
from .systems import IterateTrace, dt_hess_feasibility_3, dt_iterates
from .search import (
    AltProjConfig,
    Generator,
    RestartLog,
    SearchReport,
    altproj_hess,
    random_experiment,
    sample_matrix,
)

__all__ = [
    "AltProjConfig",
    "ClassReport",
    "ClusterAmbiguityError",
    "ConeRep",
    "ConstructionDefect",
    "CoverCertificate",
    "CoverDecision",
    "Generator",
    "HessformError",
    "IllConditionedWarning",
    "InputError",
    "IterateTrace",
    "Membership",
    "Mode",
    "NumericalError",
    "Obstruction",
    "ObstructionKind",
    "PerronData",
    "PerronVectorError",
    "RankOneShiftForm",
    "RestartLog",
    "SearchReport",
    "SimilarityCertificate",
    "SimplexPoint",
    "SortedSpectrum",
    "Verdict",
    "altproj_hess",
    "boundary_shift",
    "classify",
    "cone_membership",
    "ct_hess_3",
    "diag_commuting_transform",
    "dt_hess_2",
    "dt_hess_feasibility_3",
    "dt_iterates",
    "eigvec_b_transform",
    "fix_b_boundary",
    "geometric_multiplicity",
    "jordan_like_form",
    "make_certificate",
    "metzler_hess_3",
    "metzler_hess_4",
    "nonneg_hess_3",
    "permutation_to_hessenberg",
    "perron_pair",
    "random_experiment",
    "rank_one_shift_detect",
    "sample_matrix",
    "simplex_project",
    "sorted_spectrum",
    "triangle_cover_decision",
    "unproject",
    "verify_certificate",
]
