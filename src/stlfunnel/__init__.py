"""stlfunnel: funnel-shaped reward synthesis from temporal-logic
specifications and time-aware deep Q-learning on small simulated systems."""

from .stl.parser import parse_formula, ParseError
from .stl.formula import FragmentClass, FragmentError, classify_fragment
from .robustness import RhoBounds, estimate_rho_bounds, rho_pointwise, rho_trace
from .funnel import FunnelParams, FunnelSchedule, FunnelSegment, build_schedule, synth_l
from .reward import RewardSpec, reward, reward_sign_check
from .envs import EnvConfig, make_env
from .dqn import TrainConfig, train

__version__ = "0.1.0"

# The network runs on numpy alone; no compiled kernels exist. Kept because the
# benchmark records it as a run fact.
KERNELS_COMPILED = False
