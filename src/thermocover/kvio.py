"""Flat ``name = value`` text format used for scenarios and fit reports.

One assignment per line, ``#`` starts a comment, dotted keys give section
structure (``controller.H = 40``).  Values are read back as stripped text;
the reader of each key parses its own type.  Serialization is deterministic
(keys written in the order given) so files round-trip byte-identically.
"""

from __future__ import annotations

from .errors import ConfigError


def format_value(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # normalizes numpy scalars too
    return str(value)


def loads(text: str) -> dict:
    """Split key-value text into a flat dict of dotted name -> value text.

    A key given twice is an error: neither value would be sure to be the
    one meant.
    """
    out: dict = {}
    first_line: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'name = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in first_line:
            raise ConfigError(f"line {lineno}: {key!r} repeats line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        out[key] = value.strip()
    return out


def dumps(items: dict, header: str | None = None) -> str:
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}")
    for key, value in items.items():
        lines.append(f"{key} = {format_value(value)}")
    return "\n".join(lines) + "\n"


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(items: dict, path, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(items, header=header))


def apply_overrides(items: dict, overrides) -> dict:
    """Apply ``key=value`` strings on top of a flat dict, returning a copy.

    The applied values stay text, as ``loads`` returns them.
    """
    merged = dict(items)
    for entry in overrides:
        if "=" not in entry:
            raise ConfigError(f"override must look like key=value, got {entry!r}")
        key, _, value = entry.partition("=")
        merged[key.strip()] = value.strip()
    return merged
