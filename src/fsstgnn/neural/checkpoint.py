"""Plain-text model checkpoints.

Format (version 1), whitespace-delimited:

    fsstgnn-checkpoint 1
    <param-count>
    <name> <ndim> <dim0> <dim1> ...
    <values on one line, full repr precision>
    ... repeated per parameter, sorted by name ...

Values round-trip exactly because they are written with repr().
"""

import numpy as np

from ..errors import ParseError

FORMAT_NAME = "fsstgnn-checkpoint"
FORMAT_VERSION = 1


def save_checkpoint(path, params: dict) -> None:
    """Write named arrays (Tensors or ndarrays) to ``path``."""
    arrays = {}
    for name, p in params.items():
        values = getattr(p, "values", p)
        arrays[str(name)] = np.asarray(values, dtype=float)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{FORMAT_NAME} {FORMAT_VERSION}\n")
        handle.write(f"{len(arrays)}\n")
        for name in sorted(arrays):
            arr = arrays[name]
            if " " in name:
                raise ParseError(f"parameter name {name!r} may not contain spaces")
            dims = " ".join(str(d) for d in arr.shape)
            handle.write(f"{name} {arr.ndim} {dims}\n")
            handle.write(" ".join(repr(float(v)) for v in arr.ravel()) + "\n")


def _parse(convert, token: str, what: str, line: int):
    try:
        value = convert(token)
    except ValueError as exc:
        kind = "an integer" if convert is int else "a number"
        raise ParseError(f"{what} must be {kind}, got {token!r}", line=line) from exc
    if convert is float and not np.isfinite(value):
        raise ParseError(f"{what} must be finite, got {token!r}", line=line)
    return value


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into a name -> ndarray mapping; a malformed
    line or a non-finite value raises ParseError carrying its line number."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ParseError("empty checkpoint file", line=1)
    header = lines[0].split()
    if len(header) != 2 or header[0] != FORMAT_NAME:
        raise ParseError(f"not a {FORMAT_NAME} file", line=1)
    if _parse(int, header[1], "checkpoint version", 1) != FORMAT_VERSION:
        raise ParseError(f"unsupported checkpoint version {header[1]}", line=1)
    try:
        count = int(lines[1])
    except (IndexError, ValueError) as exc:
        raise ParseError("missing parameter count", line=2) from exc
    params: dict[str, np.ndarray] = {}
    cursor = 2
    for _ in range(count):
        if cursor >= len(lines):
            raise ParseError("truncated checkpoint", line=cursor + 1)
        head = lines[cursor].split()
        if len(head) < 2:
            raise ParseError("malformed parameter header", line=cursor + 1)
        name = head[0]
        ndim = _parse(int, head[1], f"ndim of parameter {name!r}", cursor + 1)
        if len(head) != 2 + ndim:
            raise ParseError(f"parameter {name!r} header lists {len(head) - 2} dims, expected {ndim}",
                             line=cursor + 1)
        shape = tuple(_parse(int, d, f"dim of parameter {name!r}", cursor + 1) for d in head[2:])
        if any(d < 0 for d in shape):
            raise ParseError(f"parameter {name!r} has a negative dim", line=cursor + 1)
        if cursor + 1 >= len(lines):
            raise ParseError(f"missing values for parameter {name!r}", line=cursor + 2)
        flat = np.array([_parse(float, tok, f"value of parameter {name!r}", cursor + 2)
                         for tok in lines[cursor + 1].split()], dtype=float)
        expected = int(np.prod(shape)) if shape else 1
        if flat.size != expected:
            raise ParseError(f"parameter {name!r} has {flat.size} values, expected {expected}",
                             line=cursor + 2)
        params[name] = flat.reshape(shape)
        cursor += 2
    return params
