"""On-disk formats: every file the package reads or writes goes through here.

* Tables (datasets, parameters, trajectories, plot files): one row of
  numbers per line, every field printed with %.17g, so float() reads each
  value back bit for bit and an integer value prints as its digits.  Fields
  are separated by "," (" " in the .dat plot files); rows may differ in
  width, and a table may start with one header line of column names.
* JSON documents (sidecars, manifests, reports, verdicts): indent 2 and a
  trailing newline.
* Sidecars: <name>.meta.json next to the table <name>.csv it describes.
* Output directories: created on demand; a file already there is not
  overwritten unless the caller passes force.

A file that cannot be read or written raises IoError; a malformed table
line, JSON document or sidecar value raises FormatError, with the 1-based
line number where one applies.  A config key that nothing reads raises
ConfigError.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError, FormatError, IoError


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_table(path, rows, header=None, sep: str = ",") -> None:
    """Write each row of numbers as one line of %.17g fields joined by sep,
    after a line of the header names when a header is given."""
    lines = [] if header is None else [sep.join(header)]
    lines += [sep.join("%.17g" % x for x in row) for row in rows]
    _write(path, "".join(line + "\n" for line in lines))


def read_table(path, width, rows=None, header=None) -> list:
    """The rows of the comma-separated table at path, as lists of floats.

    width is the field count of every row, or a function from a row's
    0-based index to its field count.  rows, when given, is the number of
    rows the table must hold; header, when given, the column names its first
    line must hold."""
    lines = _read(path).splitlines()
    first = 1 if header is None else 2   # line number of the first row
    if header is not None and lines[:1] != [",".join(header)]:
        raise FormatError(f"{path} lacks the header {','.join(header)}", line=1)
    body = lines[first - 1:]
    if rows is not None and len(body) != rows:
        raise FormatError(f"expected {rows} rows, found {len(body)}",
                          line=len(lines))
    out = []
    for i, line in enumerate(body):
        fields = line.split(",")
        want = width(i) if callable(width) else width
        if len(fields) != want:
            raise FormatError(f"expected {want} columns, found {len(fields)}",
                              line=first + i)
        try:
            out.append([float(tok) for tok in fields])
        except ValueError:
            raise FormatError("non-numeric token", line=first + i) from None
    return out


def write_json(path, obj) -> None:
    _write(path, json.dumps(obj, indent=2) + "\n")


def read_json(path):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc.msg}",
                          line=exc.lineno) from None


def json_field(kind, value, what: str):
    """kind(value) for a value read from a JSON file.  Raises FormatError
    naming what when kind cannot convert the value (a null where a number
    belongs, say), when kind is bool or str and the value is not one
    already, and when kind is int or float and the value is not a JSON
    number (a bool or a string, say) or, for int, not an integral one."""
    try:
        if kind in (bool, str) and not isinstance(value, kind):
            raise TypeError   # bool("false") and str(None) would succeed
        if kind in (int, float) and (isinstance(value, bool)
                                     or not isinstance(value, (int, float))):
            raise TypeError   # int(True) and float("1") would succeed
        if kind is int and value != int(value):
            raise ValueError  # int(2.7) would truncate
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise FormatError(
            f"{what} must be {kind.__name__}, got {json.dumps(value)}") from None


def check_keys(section: dict, known, what: str) -> None:
    """Raise ConfigError naming the first key of section (a JSON object
    read from a config) that is not in known: nothing would read it."""
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown {what} key {key!r} "
                              f"(known: {', '.join(known)})")


def sidecar(path) -> Path:
    """The .meta.json sidecar of the table at path."""
    return Path(path).with_suffix(".meta.json")


def read_sidecar(path, keys: dict) -> dict:
    """The sidecar of the table at path.  keys maps each required key to its
    type, and the returned dict holds those keys converted to it; a sidecar
    that is not a JSON object, lacks a key or holds a value of the wrong
    kind raises FormatError."""
    meta_path = sidecar(path)
    meta = read_json(meta_path)
    if not isinstance(meta, dict):
        raise FormatError(f"sidecar {meta_path} is not a JSON object")
    for key, kind in keys.items():
        if key not in meta:
            raise FormatError(f"sidecar {meta_path} lacks key {key!r}")
        meta[key] = json_field(kind, meta[key], f"sidecar {meta_path} key {key!r}")
    return meta


def output_paths(out_dir, names, force: bool) -> list:
    """out_dir / name for each name, after creating out_dir.  A name that
    already exists there raises ConfigError unless force is set."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out_dir}: {exc}") from exc
    paths = [out_dir / name for name in names]
    clashes = [str(p) for p in paths if p.exists()]
    if clashes and not force:
        raise ConfigError(
            f"refusing to overwrite existing output ({', '.join(clashes)}); "
            "pass --force to allow")
    return paths
