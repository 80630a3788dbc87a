"""Spectral toolkit for cluster synchronization on weighted graphs.

Builds weighted-graph Laplacian spectra, verifies almost equitable
partitions and their quasi-equitable relaxations with explicit error
bounds, integrates Kuramoto / Kuramoto-Sakaguchi dynamics in both vertex
and Laplacian-coefficient coordinates, and checks closed-form predictions
(asymptotic coefficients, transient regime structure, single-mode
discriminants, phase-lag equilibria) against simulation.
"""

from . import analysis, dynamics, equitable, experiments, generators, graph, spectral
from .graph import *
from .spectral import *
from .equitable import *
from .dynamics import *
from .analysis import *
from .generators import *
from .experiments import *

__version__ = "0.1.0"

# Each submodule's __all__ is the single list of its public names.
__all__ = [
    name
    for module in (graph, spectral, equitable, dynamics, analysis, generators, experiments)
    for name in module.__all__
]
