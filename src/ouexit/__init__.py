"""First-exit times of harmonically trapped diffusing particles.

Spectral solvers for escape from an interval, a ball, and the exterior
of a ball under an Ornstein-Uhlenbeck (trap + constant force) drift:
survival probability, exit-time density and moment generating function
(`spectral`), closed-form mean exit times and splitting probabilities
(`mean_exit`), and the confluent hypergeometric functions both rest on
(`specfun`).  `ou_model.OUProblem` maps SI inputs to the dimensionless
kappa, varphi and time unit L**2/D.
"""

__version__ = "0.1.0"
