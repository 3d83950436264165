"""Robustness lab for small regression networks on synthetic calorimeter data.

The package trains many instances of a model specification under controlled
randomization (bootstrap data draws, weight initialization), summarizes the
spread of their test losses, and runs budgeted elimination-based model
selection on top of those summaries.  Everything is float64 and
deterministically seeded; reruns of a stored config reproduce outputs bitwise.
"""

__version__ = "0.3.0"
