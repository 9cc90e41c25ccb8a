"""Private Berrut approximate coded computing.

Straggler-tolerant approximate computation over encoded real tensors:
Chebyshev-node Berrut rational encoding with Gaussian noise padding, a
computable worst-case privacy-leakage bound, and deterministic simulators
for coded decentralized-learning protocols.  The package namespace holds
the names the demos use; everything else is imported from its submodule.
"""

from .interpolation import (
    berrut_basis,
    berrut_eval,
    berrut_weights,
    chebyshev_first,
    chebyshev_second,
    make_plan,
    shifted_chebyshev_first,
)
from .codec import NoiseSpec, decode, encode, roundtrip_error
from .privacy import (
    EXHAUSTIVE,
    GREEDY,
    PrivacyConfig,
    max_secure_amplitude,
    worst_case_leakage,
)
from .learners import init_mlp, make_two_clusters
from .protocols import (
    DLCD_SECURE_TRAINING,
    DLDD_SECURE_AGGREGATION,
    DLDD_SECURE_TRAINING,
    UNCODED_DLCD,
    UNCODED_DLDD,
    NetworkConfig,
    SchemeConfig,
    StragglerModel,
    run_scheme,
)

__version__ = "0.1.0"
