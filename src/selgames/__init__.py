"""Exact, desk-scale laboratory for finite-horizon selection games.

Subsets of a finite universe are bitmask integers; topologies are
explicit lattices of opens; games are solved exactly by backward
induction; every finitary claim ships with an independent brute-force
oracle in the test suite.
"""

from ._bits import items_of, mask_of
from .duality import (
    DualityReport,
    ReflectionReport,
    check_duality,
    is_reflection,
)
from .game import (
    CoversFamily,
    EverySubsequence,
    ExplicitSet,
    FullOne,
    FullTwo,
    GameSpec,
    Kind,
    MarkovTwo,
    MultiCover,
    Not,
    Player,
    PlayRecord,
    PreOne,
    StateOne,
    StateTwo,
    WindowCover,
    make_game,
    play,
)
from .ground import (
    CoverVerdict,
    GroundSpace,
    SetFamily,
    build_topology,
    classify_cover,
    closure_family,
    discrete_space,
    family_of,
    indiscrete_space,
    min_covers,
    refines,
    singleton_family,
)
from .orders import (
    OMEGA,
    UNDEFINED,
    ExtendedNat,
    RelPair,
    brute_tukey_oracle,
    check_tukey_map,
    inclusion_pair,
    lift_omega_cof,
    make_rel_pair,
    relative_cofinality,
    truncate_product,
)
from .scenarios import (
    Scenario,
    build_game,
    build_point_open,
    build_rothberger,
    corpus,
    load_scenario,
)
from .solver import (
    Determination,
    Search,
    VerificationReport,
    find_markov_two,
    find_predetermined_one,
    solve,
    verify,
)
from .transforms import (
    Direction,
    TranslationPack,
    apply_translation,
    check_translation_axioms,
    intersect_predetermined,
    is_filter_base,
    lift_item_map,
    strengthen_one_for_subsequences,
)
from .fuzzing import FuzzReport, fuzz

__version__ = "0.1.0"
