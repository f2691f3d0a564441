"""The 18 competitor methods of the paper's evaluation (plus Spectral).

Importing this package populates :data:`BASELINE_REGISTRY`; use
:func:`make_embedder` to instantiate any method (including NRP and
ApproxPPR) by name.
"""

from .app import APP
from .arope import AROPE
from .base import (BASELINE_REGISTRY, BaselineEmbedder, available_methods,
                   make_embedder, register)
from .deepwalk import DeepWalk
from .dngr import DNGR
from .drne import DRNE
from .ga import GraphAttention
from .graphgan import GraphGAN
from .graphwave import GraphWave
from .line import LINE
from .nethiex import NetHiex
from .netmf import NetMF
from .netsmf import NetSMF
from .node2vec_method import Node2Vec
from .pbg import PBG
from .prone import ProNE
from .randne import RandNE
from .rare import RaRE
from .spectral import SpectralEmbedding
from .strap import STRAP, pruned_ppr_matrix
from .verse import VERSE

__all__ = [
    "BASELINE_REGISTRY", "BaselineEmbedder", "register", "make_embedder",
    "available_methods",
    "AROPE", "RandNE", "NetMF", "NetSMF", "ProNE", "STRAP",
    "pruned_ppr_matrix", "SpectralEmbedding",
    "DeepWalk", "LINE", "Node2Vec", "PBG", "APP", "VERSE",
    "DNGR", "DRNE", "GraphGAN", "GraphAttention",
    "RaRE", "NetHiex", "GraphWave",
]
