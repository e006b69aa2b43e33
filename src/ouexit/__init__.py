"""First-exit times of harmonically trapped diffusing particles.

Spectral solvers for escape from an interval, a ball, and the exterior
of a ball under an Ornstein-Uhlenbeck (trap + constant force) drift,
with closed-form mean exit times, splitting probabilities, moment
generating functions, and a handful of related exactly solvable
first-passage models.
"""

__version__ = "0.1.0"
