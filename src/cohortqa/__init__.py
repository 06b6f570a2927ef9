"""Harness for cohort-consistent program reasoning.

Parses and sandbox-executes restricted answer(...) programs over cohorts of
similar questions, computes the composite cohort reward with group-relative
advantages, evaluates strict/lenient consistency, and ships a toy policy
simulator showing the cohort reward suppressing shortcut programs.
"""

# no `sim` here: only `cohortqa sim` needs it, so it loads on use
from . import data_model, dsl, evaluation, retriever, reward, runtime

__version__ = "0.1.0"

__all__ = ["data_model", "dsl", "evaluation", "retriever", "reward", "runtime", "sim"]
