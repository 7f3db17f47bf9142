"""JSON codecs for games, targets, strategies, packs, and order pairs.

All emitters produce canonical form: sorted object keys, items sorted
inside subsets, two-space indent, trailing newline.  Reports built from
these codecs are byte-stable across runs.

Target states (the keys of the solver's state-keyed witnesses) have an
exact codec of their own: None and ints as they are, tuples as arrays,
frozensets as ``{"set": [...]}`` with the members in a fixed order.
Every built-in target's states are built from these four shapes, so a
state decodes without knowing its target.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ._bits import mask_of
from .errors import ScenarioFormatError
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
    PreOne,
    StateOne,
    StateTwo,
    Target,
    WindowCover,
    make_game,
)
from .orders import RelPair, inclusion_pair, make_rel_pair
from .transforms import TranslationPack


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _int(value) -> int:
    """``value`` itself if it is an integer; TypeError otherwise, which
    the decoders report as a bad record."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _mask(items) -> int:
    """The bitmask of a JSON list of ground items, each read by ``_int``."""
    return mask_of(map(_int, items))


# -- targets -------------------------------------------------------------


def target_to_json(target: Target) -> dict:
    if isinstance(target, CoversFamily):
        return {
            "type": "covers-family",
            "full": target.full,
            "members": list(target.members),
        }
    if isinstance(target, MultiCover):
        return {
            "type": "multi-cover",
            "full": target.full,
            "members": list(target.members),
            "m": target.m,
        }
    if isinstance(target, WindowCover):
        return {
            "type": "window-cover",
            "full": target.full,
            "members": list(target.members),
            "w": target.w,
        }
    if isinstance(target, ExplicitSet):
        return {
            "type": "explicit-set",
            "winning": sorted(sorted(w) for w in target.winning),
        }
    if isinstance(target, EverySubsequence):
        return {
            "type": "every-subsequence",
            "inner": target_to_json(target.inner),
            "m": target.m,
        }
    if isinstance(target, Not):
        return {"type": "not", "inner": target_to_json(target.inner)}
    raise ScenarioFormatError(f"unknown target {target!r}")


def target_from_json(data: Mapping) -> Target:
    try:
        kind = data["type"]
        if kind in ("covers-family", "multi-cover", "window-cover"):
            full = _int(data["full"])
            members = tuple(_int(m) for m in data["members"])
        if kind == "covers-family":
            return CoversFamily(full=full, members=members)
        if kind == "multi-cover":
            return MultiCover(full=full, members=members, m=_int(data["m"]))
        if kind == "window-cover":
            return WindowCover(full=full, members=members, w=_int(data["w"]))
        if kind == "explicit-set":
            return ExplicitSet(
                winning=tuple(
                    frozenset(_int(x) for x in w) for w in data["winning"]
                )
            )
        if kind == "every-subsequence":
            return EverySubsequence(
                inner=target_from_json(data["inner"]), m=_int(data["m"])
            )
        if kind == "not":
            return Not(inner=target_from_json(data["inner"]))
    except (KeyError, TypeError) as exc:
        raise ScenarioFormatError(f"bad target record: {exc}") from exc
    raise ScenarioFormatError(f"unknown target type {data.get('type')!r}")


# -- games ---------------------------------------------------------------


def game_to_json(game: GameSpec) -> dict:
    return {
        "horizon": game.horizon,
        "kind": game.kind.value,
        "moves": [
            [sorted(ms) for ms in family] for family in game.moves
        ],
        "target": target_to_json(game.target),
    }


def game_from_json(data: Mapping) -> GameSpec:
    try:
        return make_game(
            moves=[
                [frozenset(_int(x) for x in ms) for ms in family]
                for family in data["moves"]
            ],
            horizon=_int(data["horizon"]),
            kind=Kind(data["kind"]),
            target=target_from_json(data["target"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad game record: {exc}") from exc


# -- strategies ----------------------------------------------------------


def _item_to_json(item) -> Any:
    if isinstance(item, frozenset):
        return sorted(item)
    return item


def _item_from_json(value, kind: Kind):
    if kind is Kind.FINITE:
        return frozenset(map(_int, value))
    return _int(value)


def state_to_json(state) -> Any:
    """Exact, canonical JSON form of a target state."""
    if state is None or type(state) is int:
        return state
    if isinstance(state, tuple):
        return [state_to_json(s) for s in state]
    if isinstance(state, frozenset):
        return {"set": sorted(map(state_to_json, state), key=_state_order)}
    raise ScenarioFormatError(f"not a target state: {state!r}")


def state_from_json(value) -> Any:
    if value is None or type(value) is int:
        return value
    if isinstance(value, list):
        return tuple(map(state_from_json, value))
    if isinstance(value, dict) and list(value) == ["set"]:
        return frozenset(map(state_from_json, value["set"]))
    raise ScenarioFormatError(f"bad target state record: {value!r}")


def _state_order(value) -> tuple:
    """A total order on encoded states: null, ints, arrays, sets; arrays
    and sets compare member by member (a set's members are sorted)."""
    if value is None:
        return (0,)
    if isinstance(value, int):
        return (1, value)
    if isinstance(value, list):
        return (2, tuple(map(_state_order, value)))
    return (3, tuple(map(_state_order, value["set"])))


def _history_key(row: dict) -> str:
    # The order of json.dumps(row, sort_keys=True): every row's text starts
    # with its history, histories are unique, and no JSON array text is a
    # proper prefix of another, so the history text alone decides.
    return json.dumps(row["history"])


def strategy_to_json(strategy, kind: Kind = Kind.SINGLE) -> dict:
    if isinstance(strategy, PreOne):
        return {"class": "pre-one", "kind": kind.value, "indices": list(strategy.indices)}
    if isinstance(strategy, FullOne):
        rows = sorted(
            ({"history": [_item_to_json(x) for x in hist], "move": move}
             for hist, move in strategy.table.items()),
            key=_history_key,
        )
        return {"class": "full-one", "kind": kind.value, "table": rows}
    if isinstance(strategy, FullTwo):
        rows = sorted(
            ({"history": list(hist), "item": _item_to_json(item)}
             for hist, item in strategy.table.items()),
            key=_history_key,
        )
        return {"class": "full-two", "kind": kind.value, "table": rows}
    if isinstance(strategy, MarkovTwo):
        rows = sorted(
            ({"move": j, "round": r, "item": _item_to_json(item)}
             for (j, r), item in strategy.table.items()),
            key=lambda r: (r["round"], r["move"]),
        )
        return {"class": "markov-two", "kind": kind.value, "table": rows}
    if isinstance(strategy, StateOne):
        rows = sorted(
            ({"round": r, "state": state_to_json(q), "move": i}
             for (r, q), i in strategy.table.items()),
            key=lambda row: (row["round"], _state_order(row["state"])),
        )
        return {"class": "state-one", "kind": kind.value, "table": rows}
    if isinstance(strategy, StateTwo):
        rows = sorted(
            ({"round": r, "state": state_to_json(q), "move": i,
              "item": _item_to_json(item)}
             for (r, q, i), item in strategy.table.items()),
            key=lambda row: (row["round"], _state_order(row["state"]), row["move"]),
        )
        return {"class": "state-two", "kind": kind.value, "table": rows}
    raise ScenarioFormatError(f"unknown strategy {strategy!r}")


def strategy_from_json(data: Mapping):
    try:
        cls = data["class"]
        kind = Kind(data.get("kind", "single"))
        if cls == "pre-one":
            return PreOne(indices=tuple(_int(i) for i in data["indices"]))
        if cls == "full-one":
            return FullOne(
                table={
                    tuple(_item_from_json(x, kind) for x in row["history"]):
                        _int(row["move"])
                    for row in data["table"]
                }
            )
        if cls == "full-two":
            return FullTwo(
                table={
                    tuple(map(_int, row["history"])):
                        _item_from_json(row["item"], kind)
                    for row in data["table"]
                }
            )
        if cls == "markov-two":
            return MarkovTwo(
                table={
                    (_int(row["move"]), _int(row["round"])):
                        _item_from_json(row["item"], kind)
                    for row in data["table"]
                }
            )
        if cls == "state-one":
            return StateOne(
                table={
                    (_int(row["round"]), state_from_json(row["state"])):
                        _int(row["move"])
                    for row in data["table"]
                }
            )
        if cls == "state-two":
            return StateTwo(
                table={
                    (_int(row["round"]), state_from_json(row["state"]),
                     _int(row["move"])):
                        _item_from_json(row["item"], kind)
                    for row in data["table"]
                }
            )
    except (KeyError, TypeError) as exc:
        raise ScenarioFormatError(f"bad strategy record: {exc}") from exc
    raise ScenarioFormatError(f"unknown strategy class {data.get('class')!r}")


# -- translation packs ----------------------------------------------------


def pack_to_json(pack: TranslationPack) -> dict:
    return {
        "t_one": [sorted([j, i] for j, i in m.items()) for m in pack.t_one],
        "t_two": [
            sorted([x, j, y] for (x, j), y in m.items()) for m in pack.t_two
        ],
    }


def pack_from_json(data: Mapping) -> TranslationPack:
    try:
        t_one = tuple({_int(j): _int(i) for j, i in rows} for rows in data["t_one"])
        t_two = tuple({(_int(x), _int(j)): _int(y) for x, j, y in rows}
                      for rows in data["t_two"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad pack record: {exc}") from exc
    return TranslationPack(t_one=t_one, t_two=t_two)


# -- order pairs ----------------------------------------------------------


def rel_pair_to_json(pair: RelPair) -> dict:
    """Emit in the explicit index form (carrier labels do not survive)."""
    n = len(pair.carrier)
    return {
        "type": "explicit",
        "size": n,
        "leq_pairs": sorted(
            [i, j] for i in range(n) for j in range(n) if pair.leq(i, j)
        ),
        "a": list(pair.sub_a),
        "b": list(pair.sub_b),
    }


def rel_pair_from_json(data: Mapping) -> RelPair:
    try:
        if data["type"] == "inclusion":
            return inclusion_pair(
                [_mask(s) for s in data["a"]],
                [_mask(s) for s in data["b"]],
            )
        if data["type"] == "explicit":
            carrier = list(range(_int(data["size"])))
            pairs = {(_int(i), _int(j)) for i, j in data["leq_pairs"]}
            return make_rel_pair(
                carrier,
                lambda x, y: (x, y) in pairs,
                sub_a=[_int(i) for i in data["a"]],
                sub_b=[_int(i) for i in data["b"]],
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad order-pair record: {exc}") from exc
    raise ScenarioFormatError(f"unknown pair type {data.get('type')!r}")
