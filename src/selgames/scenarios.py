"""Scenario files, the two cover-game builders, and the canned corpus.

A scenario pins down a space (by subbasis), two ordered set families,
a horizon, and a flavor naming one of the stock game shapes.  The file
format is JSON with a stable field schema::

    {"name": str,
     "space": {"size": int, "subbasis": [[item, ...], ...]},
     "families": {"a": [[item, ...], ...], "b": [[item, ...], ...]},
     "horizon": int,
     "flavor": "point-open-o" | "point-open-window" | "rothberger"
             | "rothberger-lambda" | "abstract-game",
     "params": {...}}

Items are 0-based ground items; family order is significant (One's
moves are indexed by it).  parse(emit(s)) is the identity on canonical
form: subbasis sorted, items sorted inside every subset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ._bits import is_subset, items_of, mask_of
from .errors import (
    NoCovers,
    CoverEnumerationTruncated,
    NoNeighborhood,
    ScenarioFormatError,
)
from .game import CoversFamily, GameSpec, Kind, MultiCover, Not, WindowCover, make_game
from .ground import GroundSpace, SetFamily, build_topology, min_covers
from .serialize import _int, _mask, canonical_dumps, game_from_json, game_to_json

FLAVORS = (
    "point-open-o",
    "point-open-window",
    "rothberger",
    "rothberger-lambda",
    "abstract-game",
)
POINT_OPEN_FLAVORS = ("point-open-o", "point-open-window")


@dataclass(frozen=True)
class Scenario:
    """A checked scenario record; ``space`` is the topology its subbasis
    generates, built once when the record is made."""

    name: str
    space_size: int
    subbasis: tuple[int, ...]
    fam_a: tuple[int, ...]
    fam_b: tuple[int, ...]
    horizon: int
    flavor: str
    params: dict = field(default_factory=dict)
    space: GroundSpace = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if type(self.name) is not str:
            raise ScenarioFormatError("name must be a string")
        if self.flavor not in FLAVORS:
            raise ScenarioFormatError(f"unknown flavor {self.flavor!r}")
        space = build_topology(self.space_size, self.subbasis)
        for m in self.fam_a + self.fam_b:
            if not is_subset(m, space.full):
                raise ScenarioFormatError("family member outside the universe")
        if self.flavor in POINT_OPEN_FLAVORS and not space.points_closed():
            raise ScenarioFormatError(
                "point-open flavors need every singleton closed"
            )
        needs = {"point-open-window": "w", "rothberger-lambda": "m",
                 "abstract-game": "game"}.get(self.flavor)
        if needs is not None and needs not in self.params:
            raise ScenarioFormatError(f"{self.flavor} needs params.{needs}")
        if needs in ("w", "m"):
            if type(self.params[needs]) is not int:
                raise ScenarioFormatError(f"params.{needs} must be an integer")
            if self.params[needs] < 1:
                raise ScenarioFormatError(f"params.{needs} must be at least 1")
        object.__setattr__(self, "space", space)


def neighborhood_move_set(space: GroundSpace, member: int) -> frozenset[int]:
    """All proper open supersets of the member, as game items.

    The full universe is excluded so that selections can never trip the
    "whole space listed" clause of cover targets.
    """
    full = space.full
    moves = frozenset(
        u for u in space.opens if u != full and is_subset(member, u)
    )
    if not moves:
        raise NoNeighborhood(
            f"member {{{','.join(map(str, items_of(member)))}}} has no proper open superset"
        )
    return moves


def build_point_open(
    space: GroundSpace,
    fam_a: SetFamily,
    fam_b: SetFamily,
    horizon: int,
    window: Optional[int] = None,
) -> GameSpec:
    """One names a family member, Two answers with a proper open superset.

    Two wins by avoiding a cover of the second family; with ``window``
    set, by avoiding the window-cover strengthening instead.
    """
    family = tuple(neighborhood_move_set(space, a) for a in fam_a.members)
    if window is None:
        target = Not(CoversFamily(full=space.full, members=fam_b.members))
    else:
        target = Not(
            WindowCover(full=space.full, members=fam_b.members, w=window)
        )
    return make_game(
        moves=[family] * horizon, horizon=horizon, kind=Kind.SINGLE, target=target
    )


def build_rothberger(
    space: GroundSpace,
    fam_a: SetFamily,
    fam_b: SetFamily,
    horizon: int,
    multiplicity: Optional[int] = None,
) -> GameSpec:
    """One offers a minimal cover of the first family, Two picks one open.

    Two wins by assembling a cover of the second family (with
    ``multiplicity``, a cover of that multiplicity).  Restricting One to
    minimal covers is itself justified by an item-map pack; the tests
    build and validate it.
    """
    result = min_covers(space, fam_a)
    if result.truncated:
        raise CoverEnumerationTruncated(
            f"more than {len(result.covers)} minimal covers; refusing a partial move list"
        )
    if not result.covers:
        raise NoCovers("the first family admits no covers")
    family = tuple(frozenset(cover) for cover in result.covers)
    if multiplicity is None:
        target = CoversFamily(full=space.full, members=fam_b.members)
    else:
        target = MultiCover(
            full=space.full, members=fam_b.members, m=multiplicity
        )
    return make_game(
        moves=[family] * horizon, horizon=horizon, kind=Kind.SINGLE, target=target
    )


def build_game(sc: Scenario, horizon: Optional[int] = None) -> GameSpec:
    """Materialize the scenario's game, optionally overriding the horizon."""
    h = sc.horizon if horizon is None else horizon
    if sc.flavor == "abstract-game":
        game = game_from_json(sc.params["game"])
        return game if horizon is None else game.truncated(horizon)
    space = sc.space
    fam_a = SetFamily.build(space, sc.fam_a)
    fam_b = SetFamily.build(space, sc.fam_b)
    if sc.flavor == "point-open-o":
        return build_point_open(space, fam_a, fam_b, h)
    if sc.flavor == "point-open-window":
        return build_point_open(space, fam_a, fam_b, h, window=sc.params["w"])
    if sc.flavor == "rothberger":
        return build_rothberger(space, fam_a, fam_b, h)
    if sc.flavor == "rothberger-lambda":
        return build_rothberger(space, fam_a, fam_b, h, multiplicity=sc.params["m"])
    raise ScenarioFormatError(f"unknown flavor {sc.flavor!r}")


def scenario_to_json(sc: Scenario) -> dict:
    return {
        "name": sc.name,
        "space": {
            "size": sc.space_size,
            "subbasis": [list(items_of(m)) for m in sorted(sc.subbasis)],
        },
        "families": {
            "a": [list(items_of(m)) for m in sc.fam_a],
            "b": [list(items_of(m)) for m in sc.fam_b],
        },
        "horizon": sc.horizon,
        "flavor": sc.flavor,
        "params": sc.params,
    }


def scenario_from_json(data: Mapping) -> Scenario:
    try:
        sc = Scenario(
            name=data["name"],
            space_size=_int(data["space"]["size"]),
            subbasis=tuple(sorted(_mask(s) for s in data["space"]["subbasis"])),
            fam_a=tuple(_mask(s) for s in data["families"]["a"]),
            fam_b=tuple(_mask(s) for s in data["families"]["b"]),
            horizon=_int(data["horizon"]),
            flavor=data["flavor"],
            params=dict(data["params"]),
        )
    except (KeyError, TypeError) as exc:
        raise ScenarioFormatError(f"bad scenario record: {exc}") from exc
    return sc


def emit_scenario(sc: Scenario) -> str:
    return canonical_dumps(scenario_to_json(sc))


def parse_scenario(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"not valid JSON: {exc}") from exc
    return scenario_from_json(data)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def abstract_scenario(name: str, game: GameSpec) -> Scenario:
    """Wrap a bare game in the scenario schema (replay container for reports)."""
    return Scenario(
        name=name,
        space_size=1,
        subbasis=(),
        fam_a=(),
        fam_b=(),
        horizon=game.horizon,
        flavor="abstract-game",
        params={"game": game_to_json(game)},
    )


# -- canned corpus --------------------------------------------------------


def _sc(name, size, subbasis, fam_a, fam_b, horizon, flavor, params=None) -> Scenario:
    return Scenario(
        name=name,
        space_size=size,
        subbasis=tuple(sorted(mask_of(s) for s in subbasis)),
        fam_a=tuple(mask_of(s) for s in fam_a),
        fam_b=tuple(mask_of(s) for s in fam_b),
        horizon=horizon,
        flavor=flavor,
        params=params or {},
    )


def corpus() -> tuple[Scenario, ...]:
    """Small canned scenarios exercised by ``corpus run`` and the tests."""
    singles2 = [[0], [1]]
    singles3 = [[0], [1], [2]]
    return (
        _sc("point-open-discrete-2-h1", 2, singles2, singles2, singles2, 1, "point-open-o"),
        _sc("point-open-discrete-2-h2", 2, singles2, singles2, singles2, 2, "point-open-o"),
        _sc("rothberger-discrete-2-h1", 2, singles2, singles2, singles2, 1, "rothberger"),
        _sc("rothberger-discrete-2-h2", 2, singles2, singles2, singles2, 2, "rothberger"),
        _sc("point-open-discrete-3-h3", 3, singles3, singles3, singles3, 3, "point-open-o"),
        _sc("rothberger-multiplicity-2", 2, singles2, singles2, singles2, 4, "rothberger-lambda", {"m": 2}),
        _sc("point-open-window-discrete-3", 3, singles3,
            [[0], [1], [2], [0, 1], [0, 2], [1, 2]],
            singles3, 4, "point-open-window", {"w": 3}),
    )


# Expected corpus facts, written down once and checked by `corpus run`:
# (winner, predetermined script exists, Markov table exists).
CORPUS_EXPECTATIONS = {
    "point-open-discrete-2-h1": ("two", False, True),
    "point-open-discrete-2-h2": ("one", True, False),
    "rothberger-discrete-2-h1": ("one", True, False),
    "rothberger-discrete-2-h2": ("two", False, True),
    "point-open-discrete-3-h3": ("one", True, False),
    # Multiplicity counts distinct listed sets, and only {0} itself contains
    # {0} among the proper opens of the 2-point discrete space, so Two can
    # never reach multiplicity 2: One wins at every horizon.
    "rothberger-multiplicity-2": ("one", True, False),
    "point-open-window-discrete-3": ("one", True, False),
}
