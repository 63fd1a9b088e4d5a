"""Study configs of the benchmark workloads, generated from a seed.

Each workload is one acceptance plan at a reduced sample count, written in
the `levyheat run` config format.  The seed is the only input that varies;
it becomes the plan's `seed`, so the same seed gives the same config.
"""

DEFAULT_SEED = 20260815

TWO_POINT = {"kind": "two_point", "p_plus": 0.5, "v_plus": 2.0,
             "v_minus": -1.0}
PROFILE = {"c": 1.0, "r": 2.0}


def temporal_a(seed: int, samples: int = 32) -> dict:
    """Case 1, criterion 3: scheme A, multiplicative two-point jumps."""
    return {
        "name": "temporal_a", "axis": "temporal",
        "levels": [2.0**-k for k in range(4, 9)],
        "n_ref": 64, "dt_ref": 2.0**-12, "p_list": [2.0, 4.0, 8.0],
        "samples": samples, "scheme": "jump_adapted_A", "horizon": 1.0,
        "nonlinearity": {"kind": "sine", "coef": 1.0},
        "model": {"intensity": 2.0, "law": TWO_POINT, "profile": PROFILE,
                  "g1": {"kind": "constant", "value": 0.3}},
        "x0": [1.0], "seed": seed,
    }


def spatial_b_stable(seed: int, samples: int = 32) -> dict:
    """Case 2: scheme B on the truncated stable measure, spatial axis."""
    return {
        "name": "spatial_b_stable", "axis": "spatial",
        "levels": [4, 8, 16, 32],
        "n_ref": 256, "dt_ref": 2.0**-10, "p_list": [2.0, 4.0, 8.0],
        "samples": samples, "scheme": "uniform_B", "horizon": 1.0,
        "nonlinearity": {"kind": "sine", "coef": 1.0},
        "model": {"law": {"kind": "truncated_stable", "alpha": 0.5,
                          "eps": 0.05},
                  "profile": PROFILE, "g1": {"kind": "zero"}},
        "x0": [1.0], "seed": seed,
    }


def holder(seed: int, samples: int = 100000) -> dict:
    """Criterion 7: temporal L^p regularity of the jump convolution."""
    return {
        "name": "holder", "axis": "holder",
        "levels": [2.0**-j for j in range(12, 6, -1)],
        "n_ref": 64, "dt_ref": 2.0**-12, "p_list": [2.0, 8.0],
        "samples": samples, "scheme": "jump_adapted_A", "horizon": 1.0,
        "nonlinearity": {"kind": "zero"},
        "model": {"intensity": 2.0, "law": TWO_POINT, "profile": PROFILE,
                  "g1": {"kind": "zero"}},
        "x0": [1.0], "seed": seed,
    }


WORKLOADS = {
    "temporal_a": temporal_a,
    "spatial_b_stable": spatial_b_stable,
    "holder": holder,
}

# samples of the temporal_a plan used for the worker-count invariance check
INVARIANCE_SAMPLES = 4


def config(workload: str, seed: int, samples=None) -> dict:
    """The config document of one workload; `samples` overrides the
    workload's sample count."""
    make = WORKLOADS[workload]
    study = make(seed) if samples is None else make(seed, samples)
    return {"studies": [study]}
