"""The group description text format.

    group <name> ambient <n>
    gen [q1, ..., qn] inv {p1,p2} | inv {} | inv ALL

A file may hold several named groups; a group with no gen lines is the zero
group.  Parsing preserves the presentation exactly (generator order, prime
sets, unreduced cosmetics aside), so print after parse is bit-stable.
Diagnostics carry 1-based line and column numbers.
"""

from __future__ import annotations

from fractions import Fraction

from .groups import GroupRep, group_rep
from .numutil import is_prime, parse_rational
from .rank1 import PrimeSet


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _fail(message: str, line_no: int, line: str, token: str):
    col = line.find(token) + 1 if token and token in line else 1
    raise ParseError(message, line_no, col)


def _parse_rational(text: str, line_no: int, line: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError:
        _fail(f"bad rational {text!r}", line_no, line, text)


def _parse_vector(body: str, line_no: int, line: str) -> tuple[Fraction, ...]:
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        _fail("generator vector must be bracketed", line_no, line, body)
    inner = body[1:-1].strip()
    if not inner:
        _fail("empty generator vector", line_no, line, body)
    return tuple(_parse_rational(p.strip(), line_no, line) for p in inner.split(","))


def _parse_prime_set(body: str, line_no: int, line: str):
    body = body.strip()
    if body == "ALL":
        return "ALL"
    if not (body.startswith("{") and body.endswith("}")):
        _fail("prime set must be {..} or ALL", line_no, line, body)
    inner = body[1:-1].strip()
    if not inner:
        return ()
    primes = []
    for part in inner.split(","):
        part = part.strip()
        try:
            p = int(part)
        except ValueError:
            _fail(f"bad prime {part!r}", line_no, line, part)
        try:
            prime = is_prime(p)
        except ValueError as e:
            _fail(str(e), line_no, line, part)
        if not prime:
            _fail(f"{p} is not prime", line_no, line, part)
        primes.append(p)
    return tuple(sorted(set(primes)))


def parse_group_file(text: str) -> dict[str, GroupRep]:
    """Named groups from the text, in file order."""
    out: dict[str, GroupRep] = {}
    name = None
    ambient = 0
    gens: list = []

    def close():
        if name is not None:
            out[name] = group_rep(ambient, gens)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("group "):
            close()
            parts = stripped.split()
            if len(parts) != 4 or parts[2] != "ambient":
                _fail("expected: group <name> ambient <n>", line_no, raw, stripped)
            name = parts[1]
            if name in out:
                _fail(f"duplicate group name {name!r}", line_no, raw, name)
            try:
                ambient = int(parts[3])
            except ValueError:
                _fail(f"bad ambient dimension {parts[3]!r}", line_no, raw, parts[3])
            if ambient < 1:
                _fail("ambient dimension must be positive", line_no, raw, parts[3])
            gens = []
        elif stripped.startswith("gen "):
            if name is None:
                _fail("gen line before any group header", line_no, raw, stripped)
            body = stripped[4:]
            if " inv " not in body:
                _fail("expected: gen [..] inv {..}", line_no, raw, stripped)
            vec_part, inv_part = body.rsplit(" inv ", 1)
            v = _parse_vector(vec_part, line_no, raw)
            if len(v) != ambient:
                _fail(
                    f"vector length {len(v)} does not match ambient {ambient}",
                    line_no,
                    raw,
                    vec_part.strip(),
                )
            if all(e == 0 for e in v):
                _fail("zero generator", line_no, raw, vec_part.strip())
            s = _parse_prime_set(inv_part, line_no, raw)
            gens.append((v, s))
        else:
            _fail(f"unrecognized line {stripped!r}", line_no, raw, stripped)
    close()
    return out


format_prime_set = PrimeSet.__repr__


def format_group(name: str, g: GroupRep) -> str:
    """Canonical text for one group, ending with a newline."""
    lines = [f"group {name} ambient {g.ambient_dim}"]
    for v, s in g.generators:
        entries = ", ".join(str(e) for e in v)
        lines.append(f"gen [{entries}] inv {format_prime_set(s)}")
    return "\n".join(lines) + "\n"


def format_group_file(groups: dict[str, GroupRep]) -> str:
    return "\n".join(format_group(name, g) for name, g in groups.items())
