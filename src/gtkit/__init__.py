"""Combinatorics of amalgamated free products and generalized torsion.

Submodules:
  word       reduced-word algebra, weights, homs, abelianization
  stallings  folded subgroup automata (membership, expression, prefixes)
  amalgam    alternating normal forms and cancellation calculus in *_C G_i
  tamed      cancellability, tamedness, delta factorization, length bound
  gentorsion certificate search/verification, bounded NSS machinery
  magnus     truncated noncommutative power series and leading terms
  casestudy  the glued-manifold, one-relator and non-left-orderable builders
  suites     registered randomized property suites for the paper's lemmas
  cli        command-line front end
"""

from .word import Generator, Word, gen, parse_word  # noqa: F401
from .amalgam import Amalgam, AmalgamElement, normalize  # noqa: F401

__version__ = "0.1.0"
