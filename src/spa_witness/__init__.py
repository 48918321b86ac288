"""Bipartite entanglement witnesses in separable-state form W = sigma - c*I,
their structural physical approximations, and mechanical checks of the
eigenvalue conditions under which an approximation fails the PPT test.
"""

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InputError,
    InvalidParams,
    NonRealResult,
    NumericalError,
    NotADensity,
    NotAWitness,
    NotHermitian,
    NotNegative,
    ParseError,
    SpaWitnessError,
    WeightSumError,
    ZeroTrace,
)
from .fileio import load_operator, load_operator_file, save_operator
from .geometry import GEOMETRY_COLUMNS, geometry_rows
from .hakye import (
    HAKYE_DIMS,
    HaKyeParams,
    hakye_pt_spectrum_closed_form,
    hakye_spectrum_closed_form,
    hakye_witness,
    reference_violation_params,
)
from .operators import (
    Dims,
    HermitianOperator,
    eig_hermitian,
    hs_inner,
    hs_norm,
    min_eigenpair,
    partial_transpose,
    scaled,
    shifted,
)
from .scan import (
    GridAxis,
    analyze_point,
    build_grid,
    parse_grid_axis,
    run_scan,
)
from .spa import (
    Conclusion,
    ConjectureVerdict,
    PptStatus,
    PptVerdict,
    SpaResult,
    hyperplane_classify,
    ppt_check,
    pt_min_eigenvalue,
    spa,
    spa_sigma_form,
    spa_violation_from_gap,
    spa_violation_from_sigma,
)
from .states import (
    DensityOperator,
    ProductVector,
    Provenance,
    SeparableEnsemble,
    ensemble_density,
    maximally_mixed,
    random_density,
    random_separable_ensemble,
)
from .witness import (
    CmaxEstimate,
    HyperplaneSide,
    SigmaFormWitness,
    build_witness,
    c_sigma_max,
    is_weakly_optimal,
    product_expectation,
    sigma_form_from_matrix,
    verify_decomposition,
)

__version__ = "0.1.0"
