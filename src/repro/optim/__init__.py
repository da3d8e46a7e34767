"""Optimization substrate: cone programs, barrier solver, branch-and-bound."""

from .barrier import BarrierResult, BarrierSolver, find_strictly_feasible
from .bnb import (
    BranchAndBoundConfig,
    BranchAndBoundProblem,
    BranchAndBoundResult,
    BranchAndBoundSolver,
    BranchAndBoundStats,
    Candidate,
    Relaxation,
)
from .boxes import Box
from .bruteforce import BruteForceResult, brute_force_minimize
from .certificate import KktReport, check_kkt
from .cone import ConeProgram, LinearInequality, SocConstraint
from .cuts import ReflectionCut
from .presolve import Presolver, PresolveResult, PresolveStats
from .slsqp_backend import SlsqpResult, solve_with_slsqp
from .trace import SolverTrace, TraceEvent, TraceProgress

__all__ = [
    "BarrierResult",
    "BarrierSolver",
    "find_strictly_feasible",
    "BranchAndBoundConfig",
    "BranchAndBoundProblem",
    "BranchAndBoundResult",
    "BranchAndBoundSolver",
    "BranchAndBoundStats",
    "Candidate",
    "Relaxation",
    "Box",
    "Presolver",
    "PresolveResult",
    "PresolveStats",
    "ReflectionCut",
    "BruteForceResult",
    "brute_force_minimize",
    "KktReport",
    "check_kkt",
    "ConeProgram",
    "LinearInequality",
    "SocConstraint",
    "SlsqpResult",
    "solve_with_slsqp",
    "SolverTrace",
    "TraceEvent",
    "TraceProgress",
]
