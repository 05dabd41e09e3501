"""Simulated distributed-memory substrate.

Provides everything the paper's generated code needs from MPI: an
in-process message-passing layer with mpi4py semantics (:mod:`.sim`),
Cartesian topologies (:mod:`.cart`), block domain decomposition
(:mod:`.decomposition`, :mod:`.distributor`), logically-global distributed
arrays (:mod:`.data`), the three halo-exchange patterns (:mod:`.halo`)
and sparse-point routing (:mod:`.routing`).
"""

from .sim import (ANY_SOURCE, ANY_TAG, PROC_NULL, CompletedRequest,
                  RecvRequest, RemoteRankError, Request, SimComm, SimWorld,
                  parallel, run_parallel, serial_comm)
from .faults import FaultPlan, RankKilledError
from .commlog import (CommLog, CommValidationError, DeadlockError,
                      TagCollisionError, check_tag_spaces)
from .cart import (CartComm, compute_dims, create_cart,
                   neighborhood_offsets, shrink_dims)
from .decomposition import Decomposition
from .distributor import Distributor
from .data import Data, DimSpec
from .halo import (BasicExchanger, DiagonalExchanger, FullExchanger,
                   HaloWidths, box_difference, core_region, make_exchanger,
                   remainder_regions)
from .routing import (PointRouting, bilinear_coefficients,
                      block_intersections, support_points)

__all__ = [
    'ANY_SOURCE', 'ANY_TAG', 'PROC_NULL', 'CompletedRequest', 'RecvRequest',
    'RemoteRankError', 'Request', 'SimComm', 'SimWorld', 'parallel',
    'run_parallel', 'serial_comm', 'FaultPlan', 'RankKilledError',
    'CommLog', 'CommValidationError', 'DeadlockError', 'TagCollisionError',
    'check_tag_spaces', 'CartComm', 'compute_dims', 'create_cart',
    'neighborhood_offsets', 'shrink_dims', 'Decomposition', 'Distributor',
    'Data', 'DimSpec', 'BasicExchanger', 'DiagonalExchanger',
    'FullExchanger', 'HaloWidths', 'core_region', 'make_exchanger',
    'remainder_regions', 'box_difference', 'PointRouting',
    'bilinear_coefficients', 'block_intersections', 'support_points',
]
