"""Loss-resistant optical phase estimation: states, loss model, adaptive
Bayesian inference, feedback, and sequence optimization."""

from lossyphase.detection import (
    Outcome,
    OutcomeLikelihoodTable,
    build_likelihood_table,
    evaluate_outcome,
    oracle_probabilities,
)
from lossyphase.feedback import (
    expected_sharpness,
    optimal_theta_numeric,
    optimal_theta_single_photon,
)
from lossyphase.fisher import (
    fisher_information,
    max_fisher_exact_optimal4,
    max_fisher_over_chi,
)
from lossyphase.optimizer import (
    OptimizationResult,
    enumerate_plans,
    optimize,
    sql_baseline,
)
from lossyphase.posterior import (
    PhaseDistribution,
    bayes_update,
    flat_prior,
    holevo_variance,
    sharpness,
)
from lossyphase.sequences import (
    BranchGuardError,
    EvaluationReport,
    SequencePlan,
    evaluate_exact,
    evaluate_exact_with_speedup,
    evaluate_monte_carlo,
)
from lossyphase.states import (
    TriPortConfig,
    TwoModeState,
    forward_simulate_triport,
    make_exact_optimal4,
    make_loss_resistant,
    make_single_photon,
    synthesize_triport,
)

__version__ = "0.1.0"
