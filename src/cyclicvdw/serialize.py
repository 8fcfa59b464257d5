"""Shared wire format: residue sets as ascending comma-separated integers,
and named-tuple records as JSON objects."""

from __future__ import annotations

from .errors import InvalidArgumentError


def record_dict(record) -> dict:
    """A named-tuple record's fields by name, with tuple values as lists."""
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in record._asdict().items()}


def residues_to_text(residues) -> str:
    """`14,29,42,43,44` — strictly increasing, comma separated."""
    return ",".join(str(x) for x in sorted(residues))


def parse_residues(text: str) -> tuple[int, ...]:
    """Parse comma-separated ASCII decimal residues, strictly increasing.
    Blank text is the empty set; an empty field anywhere else is an error."""
    if not text.strip():
        return ()
    parts = [p.strip() for p in text.split(",")]
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise InvalidArgumentError(f"residues must be decimal digits: {text!r}")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InvalidArgumentError(f"bad residue list {text!r}: {exc}") from None
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InvalidArgumentError(
            f"residue list must be strictly increasing: {text!r}"
        )
    return values


def read_residue_file(path) -> list[tuple[int, ...]]:
    """One residue set per line, `#` comments and blank lines skipped."""
    sets = []
    with open(path, encoding="utf-8") as fh:
        try:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if line:
                    sets.append(parse_residues(line))
        except UnicodeDecodeError as exc:
            raise InvalidArgumentError(f"{path} is not UTF-8 text: {exc}") from None
    return sets
