"""Boosted mixtures of weak density generators with pointwise coverage
guarantees: a multiplicative-weights loop that doubles the weight of any
point the current generator under-serves, so the uniform mixture of all
round generators covers every point with a lower-bounded probability."""

from .boost import (
    BoostConfig,
    BoostRunError,
    GeneratorMixture,
    RoundRecord,
    RoundTrace,
    mixture_pdf,
    mixture_sample,
    mixture_support_masses,
    run_empirical,
    run_exact,
)
from .bounds import (
    BetaEstimate,
    CoverageReport,
    WorstSubset,
    best_cover_threshold,
    coverage_guarantee,
    coverage_report,
    delta_beta_estimate,
    generalization_sample_size,
    minimax_cover_bound,
    minority_weight_ratio,
    mixture_cover_bound,
    mode_coverage_count,
    noisy_coverage_guarantee,
    single_round_cover_bound,
    worst_subset,
)
from .core import (
    AnalyticDensity,
    ConfigurationError,
    ContractViolation,
    DiscreteDistribution,
    GridSpec,
    bounding_grid,
    double_weights,
    group_points,
    init_weights_empirical,
    init_weights_exact,
    load_points_csv,
    normalize,
    save_points_csv,
    uniform_on,
)
from .discriminator import (
    Discriminator,
    DiscriminatorSpec,
    ExactDiscriminator,
    empirical_cover_test,
    exact_discriminator,
    ratio_estimate,
    train_discriminator,
)
from .divergences import (
    DivergenceKind,
    QuadratureCoverageError,
    divergence_numeric,
    hellinger_discrete,
    interval_probability,
    js_discrete,
    kl_discrete,
    mle_select,
    tv_discrete,
)
from .generators import (
    AdversarialCoverageGenerator,
    FitError,
    FixedFamilyGenerator,
    GmmGenerator,
    HistogramGenerator,
    KdeGenerator,
    WeakGenerator,
    adversarial_make,
    generator_from_config,
)
from .oracles import (
    OracleReport,
    check_mixture_cover_exhaustive,
    check_quarter_cover,
    check_single_round_cover,
    check_weight_growth,
)
from .synthdata import (
    Dataset,
    make_dataset,
    make_gauss_grid,
    make_grid_isolated,
    make_rare_modes_instance,
    make_sine_dataset,
    make_spiral,
    make_three_gauss_target,
    spiral_centers,
)

__version__ = "0.1.0"
