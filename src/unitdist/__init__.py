"""Discrete and continuous unit-distance measurements.

Point-set unit-pair counting and tuple censuses, exact Cantor-type set
constructions with delta-neighborhood rasterization, band-restricted pair
measures (the |D^delta| of the distance band 1 +- w delta), scale sweeps
with exponent fits against the closed-form bound table, annulus-overlap
geometry, and Fourier-side energy checks.
"""

__version__ = "0.1.0"

from .cantor import (
    BandMassTable,
    CantorSpec,
    band_mass_table,
    cantor_stage,
    shift_union,
    stage_for_scale,
)
from .discrete import (
    PointSet,
    UnitPairReport,
    count_unit_pairs_bruteforce,
    count_unit_pairs_grid,
    normalized_pair_count,
    random_general_position,
    two_circles_r4,
    unit_step_census,
)
from .geom import (
    Annulus,
    TripleAnnulusReport,
    TupleSolution,
    affinely_independent,
    circumsphere_through_origin,
    general_position_check,
    triple_annulus_diameter,
    unit_frame_solutions,
)
from .grids import AlphaSetReport, GridIndicator, alpha_set_verify, rasterize
from .incidence import (
    AnnulusOverlap,
    IncidenceCensus,
    SectionHistogram,
    annulus_intersection_area,
    incidence_census,
    section_histogram,
    section_measures,
    separated_subset,
)
from .intervals import IntervalUnion, dyadic
from .measure import (
    Correlogram,
    PairBandBracket,
    ProductBandMeasure,
    autocorrelation,
    pair_band_mass,
    pair_band_measure_grid,
    pair_band_measure_product,
)
from .scaling import (
    BoundTable,
    CantorAxis,
    ExponentFit,
    IntervalAxis,
    PointsAxis,
    ScalingSeries,
    compare_report,
    fit_exponent,
    neighborhood_measure_series,
    sweep,
    theory_bounds,
)
from .spectral import (
    BallConvolutionReport,
    EnergyReport,
    MollifierSpec,
    ProductSpectrum,
    SpectrumGrid,
    ball_convolution_l2,
    mollify_transform,
    weighted_energy,
)
