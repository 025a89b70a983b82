"""Workbench for graph-minor gadget constructions and their verification.

The package builds deletion-robust blowups of graph segments, assembles
counterexample hosts around a supplied core graph, and checks the
claimed properties (minor containment, robustness under small edge
deletions, packing bounds, locality of embeddings) exhaustively at
desk scale with deterministic, machine-readable reports.
"""

from . import decompose, embed, gadgets, graph, verify
from .graph import *
from .decompose import *
from .embed import *
from .gadgets import *
from .verify import *

__version__ = "0.1.0"

__all__ = (graph.__all__ + decompose.__all__ + embed.__all__
           + gadgets.__all__ + verify.__all__)
