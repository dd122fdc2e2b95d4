"""Plain-text model checkpoints.

Format (version 2), whitespace-delimited:

    fsstgnn-checkpoint 2 <config-hash>
    <param-count>
    <name> <ndim> <dim0> <dim1> ...
    <values on one line, full repr precision>
    ... repeated per parameter, sorted by name ...

Values round-trip exactly because they are written with repr(). The
config hash names the experiment config that trained the parameters, so
a checkpoint is only scored under that config; "-" records none.
"""

import numpy as np

from ..errors import ParameterError, ParseError

FORMAT_NAME = "fsstgnn-checkpoint"
FORMAT_VERSION = 2


def save_checkpoint(path, params: dict, config_hash: str = "-") -> None:
    """Write named Tensors' values to ``path`` under ``config_hash``."""
    arrays = {str(name): np.asarray(p.values, dtype=float) for name, p in params.items()}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{FORMAT_NAME} {FORMAT_VERSION} {config_hash}\n")
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


def load_checkpoint(path, config_hash=None) -> dict[str, np.ndarray]:
    """Read a checkpoint back into a name -> ndarray mapping; a malformed
    line or a non-finite value raises ParseError carrying its line number.
    A well-formed checkpoint written under another hash than a given
    ``config_hash`` raises ParameterError."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ParseError("empty checkpoint file", line=1)
    header = lines[0].split()
    if len(header) < 2 or header[0] != FORMAT_NAME:
        raise ParseError(f"not a {FORMAT_NAME} file", line=1)
    if _parse(int, header[1], "checkpoint version", 1) != FORMAT_VERSION:
        raise ParseError(f"unsupported checkpoint version {header[1]}", line=1)
    if len(header) != 3:
        raise ParseError("header must name one config hash", line=1)
    try:
        count = int(lines[1])
    except (IndexError, ValueError) as exc:
        raise ParseError("missing parameter count", line=2) from exc
    if count < 0:
        raise ParseError(f"negative parameter count {count}", line=2)
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
        tokens = lines[cursor + 1].split()
        try:
            flat = np.array(tokens, dtype=float)
        except ValueError:
            flat = None
        if flat is None or not np.isfinite(flat).all():     # the per-token parse names the bad token
            flat = np.array([_parse(float, tok, f"value of parameter {name!r}", cursor + 2) for tok in tokens])
        expected = int(np.prod(shape)) if shape else 1
        if flat.size != expected:
            raise ParseError(f"parameter {name!r} has {flat.size} values, expected {expected}",
                             line=cursor + 2)
        params[name] = flat.reshape(shape)
        cursor += 2
    if cursor < len(lines):
        raise ParseError(f"line after the last of {count} declared parameters", line=cursor + 1)
    if config_hash is not None and header[2] != config_hash:
        raise ParameterError(f"checkpoint {path} was trained under config {header[2]}, "
                             f"not this run's config {config_hash}")
    return params
