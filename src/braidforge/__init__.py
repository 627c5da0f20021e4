"""braidforge: brick diagrams, linking graphs, presentations and Garside conjugacy
for positive braid words."""

from .bricks import Brick, BrickDiagram, build_bricks
from .errors import (
    BraidForgeError,
    GarsideInvariantError,
    MoveError,
    NotAForestError,
    PresentationError,
    ResourceCapError,
    StrandMismatchError,
    WordError,
)
from .garside import (
    GarsideCaps,
    NormalForm,
    SummitData,
    are_conjugate,
    conjugacy_move_sequence_detailed,
    contains_half_twist,
    cycling,
    decycling,
    normal_form,
    summit,
    words_equal_as_braids,
)
from .finite_groups import (
    FiniteTarget,
    builtin_targets,
    dihedral_group,
    load_table,
    quaternion_group,
    symmetric_group,
)
from .invariants import (
    Abelianization,
    HomCount,
    abelianization,
    enumerate_homs,
    hom_count,
)
from .isomaps import (
    CheckReport,
    GeneratorMap,
    check_map,
    maps_along_moves,
    move_map,
)
from .linking import (
    EdgeKind,
    LinkEdge,
    LinkingGraph,
    Region,
    Side,
    build_graph,
    graphs_isomorphic_as_trees,
)
from .presentations import (
    GroupWord,
    Presentation,
    Relator,
    RelatorKind,
    presentation_of,
    serialize,
)
from .words import (
    BraidWord,
    MoveKind,
    WordMove,
    apply_move,
    enumerate_moves,
    inverse_move,
    parse_word,
    replay,
    serialize_word,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
