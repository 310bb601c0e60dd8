"""Simulator for the bipartite system-apparatus measurement process.

Evolves a joint density operator under the total Hamiltonian
H_system + H_apparatus + H_coupling, checks the non-demolition commutation
conditions, and samples pointer outcomes to exhibit the sharp/repeatable
versus dispersed dichotomy.
"""

__version__ = "0.1.0"
