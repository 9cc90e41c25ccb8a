"""Every count a public constructor takes is checked by one rule.

A count is an integer (a numpy integer will do, a bool will not) of at
least its bound; the two ways to miss are refused with the two messages
``need an integer {name}, got {value!r}`` and ``need {name} >= {least}, got
{value}``.  The node families, ``init_mlp`` and the dataset makers have
their own tests in their modules' test files.
"""

import re

import numpy as np
import pytest

from pbacc.codec import NoiseSpec
from pbacc.interpolation import make_plan
from pbacc.learners import MSE, init_mlp, local_train
from pbacc.privacy import PrivacyConfig
from pbacc.protocols import (
    DLCD_SECURE_TRAINING,
    UNCODED_DLDD,
    NetworkConfig,
    SchemeConfig,
    StragglerModel,
    expected_message_counts,
)

_X, _Y = np.zeros((4, 2)), np.zeros((4, 1))

#: (id, the call that takes the count, the count's name, its least value)
COUNTS = [
    ("NoiseSpec.T", lambda v: NoiseSpec(sigma_n=1.0, T=v, seed=0), "T", 0),
    ("NoiseSpec.seed", lambda v: NoiseSpec(sigma_n=1.0, T=1, seed=v), "noise seed", 0),
    ("make_plan.K", lambda v: make_plan(v, 1, 4), "K", 1),
    ("make_plan.T", lambda v: make_plan(1, v, 4), "T", 0),
    ("make_plan.N", lambda v: make_plan(1, 1, v), "N", 2),
    ("worker_subset", lambda v: make_plan(1, 1, 4).worker_subset([v]), "subset index", 0),
    ("local_train.batch_size",
     lambda v: local_train(init_mlp([2, 1]), _X, _Y, MSE, 0.1, v, 1), "batch_size", 1),
    ("local_train.epochs",
     lambda v: local_train(init_mlp([2, 1]), _X, _Y, MSE, 0.1, 2, v), "epochs", 1),
    ("PrivacyConfig.K", lambda v: PrivacyConfig(K=v, T=1, sigma_n=1.0, c=1), "K", 1),
    ("PrivacyConfig.T", lambda v: PrivacyConfig(K=1, T=v, sigma_n=1.0, c=1), "T", 1),
    ("PrivacyConfig.c", lambda v: PrivacyConfig(K=1, T=1, sigma_n=1.0, c=v), "c", 1),
    ("StragglerModel.count", lambda v: StragglerModel(count=v), "count", 0),
    ("StragglerModel.keep_n", lambda v: StragglerModel(keep_n=v), "keep_n", 0),
    ("StragglerModel.seed", lambda v: StragglerModel(seed=v), "seed", 0),
    ("NetworkConfig.n_nodes", lambda v: NetworkConfig(n_nodes=v), "n_nodes", 1),
    ("NetworkConfig.seed", lambda v: NetworkConfig(n_nodes=2, seed=v), "seed", 0),
    ("SchemeConfig.rounds", lambda v: SchemeConfig(scheme=UNCODED_DLDD, rounds=v), "rounds", 1),
    ("SchemeConfig.batch_size", lambda v: SchemeConfig(scheme=UNCODED_DLDD, batch_size=v),
     "batch_size", 1),
    ("SchemeConfig.epochs_per_round",
     lambda v: SchemeConfig(scheme=UNCODED_DLDD, epochs_per_round=v), "epochs_per_round", 1),
    ("expected_message_counts.n_nodes", lambda v: expected_message_counts(UNCODED_DLDD, v),
     "n_nodes", 1),
    ("expected_message_counts.n_batches",
     lambda v: expected_message_counts(DLCD_SECURE_TRAINING, 4, v), "n_batches", 1),
]


@pytest.mark.parametrize("call, name, least", [case[1:] for case in COUNTS],
                         ids=[case[0] for case in COUNTS])
def test_a_count_is_an_integer_of_at_least_its_bound(call, name, least):
    for value, message in ((True, f"need an integer {name}, got True"),
                           (least + 0.5, f"need an integer {name}, got {least + 0.5}"),
                           (least - 1, f"need {name} >= {least}, got {least - 1}")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    call(np.int64(least + 1))   # a numpy integer at or above the bound is taken
