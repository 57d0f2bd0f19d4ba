"""Geometric-phase cluster-state generation in 2D coupled-cavity arrays.

Analytic mode sums for the pairwise phase shift, cluster verification from
the real phase polynomial that the echoed evolution leaves on the qubits, a
brute-force truncated-Fock validator of the driven interaction Hamiltonian,
and measurement patterns for one-way computation on the generated states.
"""

__version__ = "0.1.0"
