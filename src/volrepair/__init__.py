"""Static-arbitrage removal for option price surfaces via martingale projection."""

__version__ = "0.1.0"

from .constraints import (
    ArbitrageReport,
    ConstraintSystem,
    build_calibrated_system,
    build_joint_system,
    build_martingale_system,
    detect_arbitrage,
)
from .entropic import (
    duality_gap,
    epsilon_sweep,
    gibbs_kernel,
    root_find,
    sinkhorn_run,
)
from .grid import Theta, build_theta, choose_kmax, distance_matrix
from .lp import LpSolution, solve_eq_lsq, solve_lp, solve_p_prime
from .market_data import (
    NormalizedSurface,
    StressScenario,
    apply_stress,
    implied_vol,
    normalize,
    parse_quotes,
)
from .repair import RepairConfig, extract_marginal, repair
from .signed_measure import (
    JointSignedMeasure,
    SignedMarginal,
    build_joint,
    marginal_weights,
)

__all__ = [
    "ArbitrageReport",
    "ConstraintSystem",
    "JointSignedMeasure",
    "LpSolution",
    "NormalizedSurface",
    "RepairConfig",
    "SignedMarginal",
    "StressScenario",
    "Theta",
    "apply_stress",
    "build_calibrated_system",
    "build_joint",
    "build_joint_system",
    "build_martingale_system",
    "build_theta",
    "choose_kmax",
    "detect_arbitrage",
    "distance_matrix",
    "duality_gap",
    "epsilon_sweep",
    "extract_marginal",
    "gibbs_kernel",
    "implied_vol",
    "marginal_weights",
    "normalize",
    "parse_quotes",
    "repair",
    "root_find",
    "sinkhorn_run",
    "solve_eq_lsq",
    "solve_lp",
    "solve_p_prime",
]
