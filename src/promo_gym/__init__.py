"""promo-gym: tabular Q-learning toolkit and retail promo-forecasting simulator."""

from .binning import BinningModel, assign_bin, fit_bins
from .envcore import RngStream
from .frozen_lake import make_frozen_lake
from .ingest import (
    DailySalesRecord,
    OnlineTxnRecord,
    PromoPlanRecord,
    RxTxnRecord,
    parse_holidays,
    parse_promo_plan,
    parse_transactions,
    unify,
)
from .learner import (
    EpisodeTrace,
    LearnerConfig,
    QTable,
    act,
    evaluate_greedy,
    greedy_policy,
    q_update,
    run_episode,
    train,
)
from .metrics import MetricsSeries, compute_metrics
from .promoenv import (
    ACTION_NAMES,
    PromoGridSpec,
    build_promo_mdp,
    derive_spec_from_data,
)
from .solve import ValueSolution, value_iteration
from .tables import (
    TabularEnv,
    TransitionEntry,
    TransitionTable,
    deserialize,
    serialize,
    step_sample,
    validate,
)

__version__ = "0.1.0"
