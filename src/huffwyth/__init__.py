"""Exact-arithmetic toolkit around maximum-height Huffman trees.

The package ties together three strands:

  * a stepwise Huffman algorithm that records every intermediate weight
    sequence, classifies inputs by their tie pattern, and builds the
    corresponding prefix-code trees (huffman);
  * the generalized Wythoff array and the Fibonacci / Lucas / lower
    Wythoff sequences feeding it (numbers, wythoff);
  * closed forms for the cheapest weight sequences whose optimal tree has
    maximum height, by order class, plus their costs (theorems), and a
    brute-force oracle that verifies those closed forms by exhaustive
    enumeration (oracle).

All arithmetic is exact; no floats appear anywhere.  An int argument that
is a bool or not an int raises ValueError("<name> must be an int, got
<value>"), and one below its least value ValueError("need <name> >= <least>,
got <value>"); n and k raise the subclasses SizeTooSmallError and
KOutOfRangeError of theorems for their ranges.
"""

from . import huffman, numbers, oracle, theorems, wythoff
from .numbers import *
from .wythoff import *
from .huffman import *
from .theorems import *
from .oracle import *

__version__ = "0.1.0"

# The public API is each layer's __all__; the package names none itself.
__all__ = [name for layer in (numbers, wythoff, huffman, theorems, oracle)
           for name in layer.__all__] + ["__version__"]
