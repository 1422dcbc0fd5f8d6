"""Numerical laboratory for adiabatic conditions and the quantum geometric
potential (QGP) in N-level quantum systems.

Layers, bottom-up: ``errors`` (the exception hierarchy), ``numerics``
(derivatives, running integrals and phase unwrapping on a grid), ``linalg``
(dense Hermitian algebra), ``models`` (Hamiltonian families, sampled on
whole arrays of tau), ``frames`` (gauge-continuous eigenframes), ``evolve``
(Schrodinger and coefficient-frame propagation), ``qgp`` (geometric
potential, curvature, loop identities), ``conditions`` (adiabaticity
criteria and the Pi-matrix machinery), ``metrics`` (closed-form oracles),
``reporting`` (CSV and SVG writers; ``_g17`` is its exact ``%.17g``
kernel), ``cli`` (configs and one compute-once scenario run behind every
subcommand).  Importing the package imports none of them.
"""

__version__ = "0.1.0"
