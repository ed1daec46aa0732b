"""Exact computational algebra for semi-cosimplicial objects: coface
identities, partial shifts, braid-monoid actions, cohomology, the
Temperley-Lieb algebra with its Markov trace, and moment-level spreadability.

All arithmetic is over the Gaussian rationals; every verification is an exact
equality check, reported with the mode (exhaustive or sampled) and a first
counterexample on failure.
"""

__version__ = "1.0.0"
