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
from contextlib import contextmanager
from dataclasses import fields
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


def load_json(path: str) -> Any:
    """The JSON value in the file at ``path``; a file that cannot be read
    or parsed is a ScenarioFormatError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


@contextmanager
def decoding(record: str):
    """The boundary of every decoder, as a decorator or a ``with`` block:
    a KeyError, TypeError or ValueError inside it, which is how a decoder
    meets a missing field, a wrong type or a bad value, is reported as a
    ScenarioFormatError on a bad ``record`` record."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad {record} record: {exc}") from exc


def _int(value) -> int:
    """``value`` itself if it is an integer; TypeError otherwise."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _ints(values) -> tuple[int, ...]:
    return tuple(map(_int, values))


def _mask(items) -> int:
    """The bitmask of a JSON list of ground items, each read by ``_int``;
    ValueError for a negative item."""
    items = _ints(items)
    if any(i < 0 for i in items):
        raise ValueError(f"negative ground item in {items!r}")
    return mask_of(items)


# -- targets -------------------------------------------------------------
#
# A target's record is its type name and its init fields, each field
# written and read by the codec of its name in ``_TARGET_FIELDS``.

_TARGET_TYPES = {
    "covers-family": CoversFamily,
    "multi-cover": MultiCover,
    "window-cover": WindowCover,
    "explicit-set": ExplicitSet,
    "every-subsequence": EverySubsequence,
    "not": Not,
}
_TARGET_NAMES = {cls: name for name, cls in _TARGET_TYPES.items()}


def target_to_json(target: Target) -> dict:
    if type(target) not in _TARGET_NAMES:
        raise ScenarioFormatError(f"unknown target {target!r}")
    record = {"type": _TARGET_NAMES[type(target)]}
    for f in fields(target):
        if f.init:
            record[f.name] = _TARGET_FIELDS[f.name][0](getattr(target, f.name))
    return record


@decoding("target")
def target_from_json(data: Mapping) -> Target:
    if data["type"] not in _TARGET_TYPES:
        raise ScenarioFormatError(f"unknown target type {data['type']!r}")
    cls = _TARGET_TYPES[data["type"]]
    return cls(**{f.name: _TARGET_FIELDS[f.name][1](data[f.name])
                  for f in fields(cls) if f.init})


# field name: (to JSON, from JSON)
_TARGET_FIELDS = {
    "full": (int, _int),
    "members": (list, _ints),
    "m": (int, _int),
    "w": (int, _int),
    "winning": (lambda winning: sorted(map(sorted, winning)),
                lambda rows: tuple(frozenset(_ints(w)) for w in rows)),
    "inner": (target_to_json, target_from_json),
}


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


@decoding("game")
def game_from_json(data: Mapping) -> GameSpec:
    return make_game(
        moves=[[frozenset(_ints(ms)) for ms in family] for family in data["moves"]],
        horizon=_int(data["horizon"]),
        kind=Kind(data["kind"]),
        target=target_from_json(data["target"]),
    )


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


def _table(rows) -> dict:
    """The table of decoded (key, value) rows; a key on two rows is a
    ValueError, since the record then contradicts itself."""
    table: dict = {}
    for key, value in rows:
        if key in table:
            raise ValueError(f"two rows for {key!r}")
        table[key] = value
    return table


@decoding("strategy")
def strategy_from_json(data: Mapping):
    cls = data["class"]
    kind = Kind(data.get("kind", "single"))
    if cls == "pre-one":
        return PreOne(indices=_ints(data["indices"]))
    if cls == "full-one":
        return FullOne(table=_table(
            (tuple(_item_from_json(x, kind) for x in row["history"]),
             _int(row["move"]))
            for row in data["table"]
        ))
    if cls == "full-two":
        return FullTwo(table=_table(
            (_ints(row["history"]), _item_from_json(row["item"], kind))
            for row in data["table"]
        ))
    if cls == "markov-two":
        return MarkovTwo(table=_table(
            ((_int(row["move"]), _int(row["round"])),
             _item_from_json(row["item"], kind))
            for row in data["table"]
        ))
    if cls == "state-one":
        return StateOne(table=_table(
            ((_int(row["round"]), state_from_json(row["state"])),
             _int(row["move"]))
            for row in data["table"]
        ))
    if cls == "state-two":
        return StateTwo(table=_table(
            ((_int(row["round"]), state_from_json(row["state"]),
              _int(row["move"])),
             _item_from_json(row["item"], kind))
            for row in data["table"]
        ))
    raise ScenarioFormatError(f"unknown strategy class {cls!r}")


# -- translation packs ----------------------------------------------------


def pack_to_json(pack: TranslationPack) -> dict:
    return {
        "t_one": [sorted([j, i] for j, i in m.items()) for m in pack.t_one],
        "t_two": [
            sorted([x, j, y] for (x, j), y in m.items()) for m in pack.t_two
        ],
    }


@decoding("pack")
def pack_from_json(data: Mapping) -> TranslationPack:
    return TranslationPack(
        t_one=tuple(_table((_int(j), _int(i)) for j, i in rows)
                    for rows in data["t_one"]),
        t_two=tuple(_table(((_int(x), _int(j)), _int(y)) for x, j, y in rows)
                    for rows in data["t_two"]),
    )


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


@decoding("order-pair")
def rel_pair_from_json(data: Mapping) -> RelPair:
    if data["type"] == "inclusion":
        return inclusion_pair(
            [_mask(s) for s in data["a"]],
            [_mask(s) for s in data["b"]],
        )
    if data["type"] == "explicit":
        size = _int(data["size"])
        if size < 0:
            raise ValueError(f"negative carrier size {size}")
        pairs = {(_int(i), _int(j)) for i, j in data["leq_pairs"]}
        for i, j in pairs:
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"pair {[i, j]} outside a carrier of size {size}")
        return make_rel_pair(
            list(range(size)),
            lambda x, y: (x, y) in pairs,
            sub_a=_ints(data["a"]),
            sub_b=_ints(data["b"]),
        )
    raise ScenarioFormatError(f"unknown pair type {data['type']!r}")
