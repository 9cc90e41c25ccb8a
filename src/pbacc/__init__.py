"""Private Berrut approximate coded computing.

Straggler-tolerant approximate computation over encoded real tensors:
Chebyshev-node Berrut rational encoding with Gaussian noise padding, a
computable worst-case privacy-leakage bound, and deterministic simulators
for coded decentralized-learning protocols.
"""

from .interpolation import (
    DEFAULT_NOISE_SHIFT,
    CodingPlan,
    NodeCoincidenceError,
    berrut_basis,
    berrut_eval,
    chebyshev_first,
    chebyshev_second,
    make_plan,
    shifted_chebyshev_first,
)
from .codec import (
    NoiseSpec,
    Share,
    Shares,
    decode,
    encode,
    read_tensor,
    roundtrip_error,
    tensor_from_bytes,
    tensor_to_bytes,
    write_tensor,
)
from .privacy import (
    EXHAUSTIVE,
    GREEDY,
    RANDOM_SAMPLED,
    LeakageReport,
    PrivacyConfig,
    build_sigmas,
    leakage_for_subset,
    max_secure_amplitude,
    worst_case_leakage,
)
from .learners import (
    ACTIVATIONS,
    COORD_MEDIAN,
    FEDAVG,
    LOSSES,
    Batch,
    ModelParams,
    aggregate,
    evaluate,
    forward,
    init_mlp,
    local_train,
    loss_and_grad,
    make_survival,
    make_two_clusters,
    sgd_step,
)
from .protocols import (
    DLCD_SECURE_TRAINING,
    DLDD_SECURE_AGGREGATION,
    DLDD_SECURE_TRAINING,
    SCHEMES,
    UNCODED_DLCD,
    UNCODED_DLDD,
    Message,
    NetworkConfig,
    RoundTrace,
    SchemeConfig,
    StragglerModel,
    expected_message_counts,
    run_scheme,
    select_fastest,
)
from .harness import ExperimentSpec, SpecError, load_spec, run_experiment, spec_from_dict

__version__ = "0.1.0"
