"""Simulation of the stochastic heat equation driven by Gaussian space-time
white noise and Poisson jump noise, with exactly coupled multi-resolution
sampling for measuring strong convergence orders."""

# the one version string: cli's manifests and the package metadata read it
__version__ = "0.1.0"

from levyheat.spectral import (
    NonlinearitySpec,
    SpectralState,
    eigenvalues,
    from_physical,
    hnorm,
    nemytskii,
    phi1_apply,
    project,
    semigroup_apply,
    to_physical,
)

from levyheat.noise import (
    CoupledNoisePath,
    ExpShiftedLaw,
    G1Spec,
    JumpSkeleton,
    MarkModel,
    SeedRecord,
    StepBundle,
    TruncatedStableLaw,
    TwoPointLaw,
    compensated_jump_convolution,
    compensator_coeffs,
    compose_convolution,
    conv_variance,
    power_profile,
    restrict_path,
    sample_jump_skeleton,
    sample_path,
    stream,
    truncate_levy,
)

from levyheat.schemes import (
    SCHEME_A,
    SCHEME_B,
    DivergenceError,
    SchemeConfig,
    StepNoise,
    TimePartition,
    Trajectory,
    build_adapted_partition,
    jump_apply,
    one_step_phi,
    run_scheme_A,
    run_scheme_B,
    uniform_partition,
)

from levyheat.experiments import (
    OrderReport,
    StudyPlan,
    StudyResult,
    estimate_lp_error,
    fit_order,
    run_holder_study,
    run_spatial_study,
    run_study,
    run_temporal_study,
)

from levyheat.cli import (
    ConfigError,
    RunManifest,
    config_digest,
    emit_plot_data,
    execute,
    parse_config,
    serialize_config,
    serialize_plan,
)
