"""The one structured-text config format used across all subcommands.

Syntax, line oriented:

    # comment (also after a value: from the first '#' outside quotes)
    key = value
    dotted.key = value
    list_key = [1, 2.5, 3]

Values are integers, floats, booleans (true/false), bare or double-quoted
strings, or flat lists of numbers.  Keys may repeat neither; unknown keys are
rejected by each schema so typos fail before any computation starts.
serialize writes a string quoted whenever its bare text would read back as
something else.  There is no escape, so it rejects a string holding a double
quote rather than write one that reads back changed.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from fracreg.errors import ConfigError

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")
# A comment starts at the first '#' outside a double-quoted string.  A line
# with an unclosed quote does not match: it has no comment.
_LINE_RE = re.compile(r'([^"#]*(?:"[^"]*"[^"#]*)*)(?:#.*)?')

OVERRIDE_SOURCE = "<override>"


@dataclass(frozen=True)
class Entry:
    value: object
    line: int | None  # None for an override


def _parse_scalar(token: str, key: str, line: int):
    token = token.strip()
    if not token:
        raise ConfigError("line %d: empty value for %r" % (line, key), key=key, line=line)
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    low = token.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def parse_text(text: str, source: str = "<config>") -> dict:
    """Parse config text into an ordered mapping key -> Entry(value, line)."""
    entries: dict[str, Entry] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _LINE_RE.fullmatch(raw)
        line = (m.group(1) if m else raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                "%s:%d: expected key = value" % (source, lineno), line=lineno
            )
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if not _KEY_RE.match(key):
            raise ConfigError("%s:%d: bad key %r" % (source, lineno, key), key=key, line=lineno)
        if key in entries:
            raise ConfigError(
                "%s:%d: duplicate key %r (first on line %d)"
                % (source, lineno, key, entries[key].line),
                key=key, line=lineno,
            )
        if rhs.startswith("["):
            if not rhs.endswith("]"):
                raise ConfigError(
                    "%s:%d: unterminated list for %r" % (source, lineno, key),
                    key=key, line=lineno,
                )
            inner = rhs[1:-1].strip()
            items = [t for t in (part.strip() for part in inner.split(",")) if t] if inner else []
            value = [_parse_scalar(t, key, lineno) for t in items]
            if any(isinstance(v, (str, bool)) for v in value):
                raise ConfigError(
                    "%s:%d: lists may contain numbers only (%r)" % (source, lineno, key),
                    key=key, line=lineno,
                )
        else:
            value = _parse_scalar(rhs, key, lineno)
        entries[key] = Entry(value=value, line=lineno)
    return entries


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = format(value, ".17g")
        return "-0.0" if text == "-0" else text  # "-0" would read back as the int 0
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if '"' in text:
        raise ConfigError("cannot write %r: a config string has no escape for a double quote"
                          % text)
    # quote whatever would not read back bare as this same string ("12", "true", "")
    if (not text or any(c in text for c in '#=[]') or " " in text
            or _parse_scalar(text, "", 0) != text):
        return '"%s"' % text
    return text


def serialize(mapping: dict) -> str:
    """Render key -> plain value back to config text."""
    lines = []
    for key, value in mapping.items():
        if isinstance(value, (list, tuple)):
            body = ", ".join(_format_scalar(v) for v in value)
            lines.append("%s = [%s]" % (key, body))
        else:
            lines.append("%s = %s" % (key, _format_scalar(value)))
    return "\n".join(lines) + "\n"


def apply_overrides(entries: dict, overrides) -> dict:
    """Apply key=value strings (--set) on top of parsed entries.

    An overridden entry has no line: its errors cite the override, not the file.
    """
    out = dict(entries)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError("override %r is not of the form key=value" % item, key=item)
        key, _, rhs = item.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigError("override has a bad key %r" % key, key=key)
        parsed = parse_text("%s = %s" % (key, rhs.strip()), source=OVERRIDE_SOURCE)
        out[key] = Entry(value=parsed[key].value, line=None)
    return out


class ConfigView:
    """Typed, validated access to parsed entries.

    effective records the value of each key handed out, in read order:
    defaults included, absent optional keys left out.  It is the effective
    config, and a key in entries that it lacks was never read.
    """

    def __init__(self, entries: dict, source: str = "<config>"):
        self.entries = entries
        self.source = source
        self.effective: dict = {}

    def _fail(self, key, message):
        entry = self.entries.get(key)
        line = entry.line if entry is not None else None
        if line is not None:
            where = "%s:%d" % (self.source, line)
        else:
            where = OVERRIDE_SOURCE if entry is not None else self.source
        raise ConfigError("%s: %s" % (where, message), key=key, line=line)

    def has(self, key) -> bool:
        return key in self.entries

    def raw(self, key):
        """The value as given, or None; not a read, so nothing is recorded."""
        return self.entries[key].value if key in self.entries else None

    def _value(self, key, default, required):
        if key in self.entries:
            return self.entries[key].value
        if required:
            raise ConfigError("%s: missing required key %r" % (self.source, key), key=key)
        return default

    def _record(self, key, value):
        if value is not None:
            self.effective[key] = value
        return value

    def get_str(self, key, default=None, required=False):
        val = self._value(key, default, required)
        if val is not None and not isinstance(val, str):
            self._fail(key, "%r must be a string" % key)
        return self._record(key, val)

    def get_int(self, key, default=None, required=False, minimum=None, maximum=None):
        val = self._value(key, default, required)
        if val is None:
            return None
        if isinstance(val, bool) or not isinstance(val, int):
            self._fail(key, "%r must be an integer" % key)
        if minimum is not None and val < minimum:
            self._fail(key, "%r must be at least %d" % (key, minimum))
        if maximum is not None and val > maximum:
            self._fail(key, "%r must be at most %d" % (key, maximum))
        return self._record(key, val)

    def _finite(self, key, values):
        """values, failing on inf, nan or an integer beyond the float range."""
        if not all(abs(v) <= sys.float_info.max for v in values):
            self._fail(key, "%r must be finite" % key)
        return values

    def get_float(self, key, default=None, required=False, gt=None, ge=None):
        val = self._value(key, default, required)
        if val is None:
            return None
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            self._fail(key, "%r must be a number" % key)
        val = float(self._finite(key, [val])[0])
        if gt is not None and not val > gt:
            self._fail(key, "%r must be greater than %s" % (key, gt))
        if ge is not None and not val >= ge:
            self._fail(key, "%r must be at least %s" % (key, ge))
        return self._record(key, val)

    def get_unit_open(self, key, default=None, required=False):
        """A float strictly inside (0, 1); the usual smoothness order check."""
        val = self._value(key, default, required)
        if val is None:
            return None
        if isinstance(val, bool) or not isinstance(val, (int, float)) or not 0.0 < val < 1.0:
            self._fail(key, "%r must lie in (0,1)" % key)
        return self._record(key, float(val))

    def get_list(self, key, default=None, required=False, kind=float, gt=None, ge=None,
                 le=None):
        val = self._value(key, default, required)
        if val is None:
            return None
        if not isinstance(val, (list, tuple)):
            self._fail(key, "%r must be a list" % key)
        if kind is int and any(isinstance(v, bool) or not isinstance(v, int) for v in val):
            self._fail(key, "%r must be a list of integers" % key)
        val = [kind(v) for v in self._finite(key, val)]
        if gt is not None and not all(v > gt for v in val):
            self._fail(key, "%r entries must be greater than %s" % (key, gt))
        if ge is not None and not all(v >= ge for v in val):
            self._fail(key, "%r entries must be at least %s" % (key, ge))
        if le is not None and not all(v <= le for v in val):
            self._fail(key, "%r entries must be at most %s" % (key, le))
        return self._record(key, val)

    def reject_unknown(self):
        unknown = [k for k in self.entries if k not in self.effective]
        if unknown:
            first = unknown[0]
            self._fail(first, "unknown key %r" % first)
