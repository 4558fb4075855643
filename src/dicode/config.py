"""Config key tables: one per subcommand, driving parsing, validation and help.

A table maps each dotted key (``trials.identities``) to a ``Key``.
Anything a table does not describe is refused, never dropped.
"""

from __future__ import annotations

import difflib
import inspect
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

NUMBER = (int, float)  # a number, kept as given rather than made a float
_UNSET = object()
_NAMES = {int: "an integer", float: "a number", NUMBER: "a number", bool: "true or false",
          str: "a string", dict: "a record (JSON object)", list: "a list"}


@dataclass(frozen=True)
class Key:
    """One config key.

    ``type`` is int, float, NUMBER, bool, str, dict (a record) or list.
    Integral floats pass as int and ints as float; floats must be
    finite.  ``min`` bounds a number, or the length of a list.
    ``choices`` lists every value a scalar, or each entry of a list, may
    take.  ``parse`` builds the object a record, or each entry of a
    list, stands for; its ValueError is re-raised naming the dotted path.
    ``default`` fills in an absent key; ``owned_defaults`` reads one that a
    constructor owns from its signature.  A default of None admits null.
    """

    type: type | tuple
    help: str
    min: float | None = None
    default: object = _UNSET
    required: bool = False
    choices: tuple = ()
    parse: Callable | None = None

    def check(self, path: str, value):
        """The value as its constructor takes it; ValueError naming path if it is wrong."""
        if value is None and self.default is None:
            return None
        if self.type is int and isinstance(value, float) and value.is_integer():
            value = int(value)
        elif self.type is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if isinstance(value, bool) != (self.type is bool) or not isinstance(value, self.type):
            raise ValueError(f"{path} must be {_NAMES[self.type]}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{path} must be finite, got {value!r}")
        if self.min is not None:
            if isinstance(value, list) and len(value) < self.min:
                raise ValueError(f"{path} has {len(value)} entries, fewer than {self.min}")
            if not isinstance(value, list) and value < self.min:
                raise ValueError(f"{path} must be at least {self.min}, got {value!r}")
        entries = enumerate(value) if isinstance(value, list) else [(None, value)]
        built = []
        for i, entry in entries:
            where = path if i is None else f"{path}[{i}]"
            if self.choices and entry not in self.choices:
                close = difflib.get_close_matches(str(entry), [str(c) for c in self.choices], n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                raise ValueError(f"{where} must be one of "
                                 f"{', '.join(map(json.dumps, self.choices))}, got {entry!r}{hint}")
            try:
                built.append(entry if self.parse is None else self.parse(entry))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
        return built if isinstance(value, list) else built[0]


def owned_defaults(fn: Callable, table: dict[str, Key]) -> dict[str, Key]:
    """table, each key that names an argument of fn (a dotted key by its last
    part) given that argument's default, where fn has one."""
    owned = {name: arg.default for name, arg in inspect.signature(fn).parameters.items()
             if arg.default is not arg.empty}
    return {path: replace(key, default=owned[path.rsplit(".", 1)[-1]])
            if path.rsplit(".", 1)[-1] in owned else key for path, key in table.items()}


def resolve(cfg: dict, table: dict[str, Key], prefix: str = "") -> dict:
    """Check cfg against the keys of table under prefix; return the typed values.

    The result nests like cfg, with the prefix stripped, table defaults
    filled in and records built by their key's ``parse``.  An unknown
    key, a missing required key, a value of the wrong type or a record
    its parse refuses raises ValueError naming the dotted key.
    """
    out: dict = {}
    seen = set()

    def put(path: str, value) -> None:
        *groups, last = path[len(prefix):].split(".")
        node = out
        for g in groups:
            node = node.setdefault(g, {})
        node[last] = value
        seen.add(path)

    def walk(node: dict, base: str) -> None:
        for name, value in node.items():
            path = base + name
            group = any(k.startswith(path + ".") for k in table)
            if path in table:
                put(path, table[path].check(path, value))
            elif isinstance(value, dict) and (value or group):
                walk(value, path + ".")
            elif group:
                raise ValueError(f"{path} must be {_NAMES[dict]}, got {value!r}")
            else:
                close = difflib.get_close_matches(path, table, n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                raise ValueError(f"unknown config key {path!r}{hint}")

    walk(cfg, prefix)
    for path, key in table.items():
        if not path.startswith(prefix) or path in seen:
            continue
        if key.required:
            raise ValueError(f"missing required config key {path!r}")
        if key.default is not _UNSET:
            put(path, key.default)
    return out


def epilog(table: dict[str, Key]) -> str:
    """The key table as --help prints it."""
    lines = ["config keys (settable via the JSON config or --set):"]
    for path, key in table.items():
        facts = _NAMES[key.type] + ("" if key.min is None else f" >= {key.min}")
        if key.choices:
            facts = ("entries from " if key.type is list else "one of ") + ", ".join(
                map(json.dumps, key.choices))
        if key.required or key.default is not _UNSET:
            facts += ", required" if key.required else f", default {json.dumps(key.default)}"
        lines.append(f"  {path:28s} {key.help} [{facts}]")
    return "\n".join(lines)
