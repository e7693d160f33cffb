"""Static-arbitrage removal for option price surfaces via martingale projection."""

__version__ = "0.1.0"

from .constraints import (
    ArbitrageReport,
    ConstraintSystem,
    Violation,
    build_calibrated_system,
    build_joint_system,
    build_martingale_system,
    detect_arbitrage,
    martingale_feasible,
)
from .entropic import (
    GibbsKernel,
    ScalingState,
    SinkhornReport,
    duality_gap,
    epsilon_sweep,
    gibbs_kernel,
    kl_divergence,
    entropy,
    prox_vector,
    root_find,
    sinkhorn_run,
    stopping_criterion,
)
from .grid import PathIndexer, Theta, build_theta, choose_kmax, distance_matrix
from .lp import LpProblem, LpSolution, solve_eq_lsq, solve_lp, solve_p_prime
from .market_data import (
    MarketCurve,
    NormalizedSurface,
    OptionQuote,
    StressScenario,
    apply_stress,
    bs_call_price,
    fit_forward_discount,
    implied_vol,
    normalize,
    parse_quotes,
)
from .repair import (
    RepairConfig,
    RepairResult,
    extract_marginal,
    price_from_marginal,
    repair,
)
from .signed_measure import (
    JointSignedMeasure,
    SignedMarginal,
    build_joint,
    check_lemma_identity,
    decompose,
    marginal_weights,
    pricing_function,
)

__all__ = [name for name in dir() if not name.startswith("_")]
