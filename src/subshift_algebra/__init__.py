"""Exact computer algebra for unital algebras of one-sided shifts of finite
type: canonical normal forms through the partial skew group ring model,
executable reduction with verifiable witnesses, and the corner-to-Laurent
structure maps."""

from .algebra import AlgebraElement, SubshiftAlgebra
from .clopen import (ClopenSet, CycleClass, CycleKind, as_singleton, c_set,
                     classify_cycle, cylinder, empty_set, full_set,
                     relative_range)
from .reduction import (CycleForm, ProjectionMultiple, ReductionWitness,
                        embed_form, reduce, verify)
from .rings import QQ, ZZ, Ring, Zmod, ring_from_name
from .shift import FollowerGraph, SftSpec, build_follower_graph
from .structure import (LaurentPoly, RelationReport, corner_project,
                        corner_to_laurent, find_cycles_without_exit,
                        laurent_to_corner, relations_selftest,
                        square_nonzero_check)
from .words import (EpPoint, Word, commuting_root, ep_normalize, ep_shift,
                    is_minimal_cycle_word, primitive_root)

__all__ = [
    "AlgebraElement", "SubshiftAlgebra",
    "ClopenSet", "CycleClass", "CycleKind", "as_singleton", "c_set",
    "classify_cycle", "cylinder", "empty_set", "full_set",
    "relative_range",
    "CycleForm", "ProjectionMultiple", "ReductionWitness", "embed_form",
    "reduce", "verify",
    "QQ", "ZZ", "Ring", "Zmod", "ring_from_name",
    "FollowerGraph", "SftSpec", "build_follower_graph",
    "LaurentPoly", "RelationReport", "corner_project", "corner_to_laurent",
    "find_cycles_without_exit", "laurent_to_corner", "relations_selftest",
    "square_nonzero_check",
    "EpPoint", "Word", "commuting_root", "ep_normalize", "ep_shift",
    "is_minimal_cycle_word", "primitive_root",
]

__version__ = "0.1.0"
