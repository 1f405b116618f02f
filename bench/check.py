"""Output signatures and the comparison against recorded references.

An op's signature splits its output into an exact part and floats.  The
exact part (every rational string, the structure of the report, the
matrix text, the verification verdicts and the exit code) is hashed and
must match the reference bit for bit.  Floats are kept by field and must
match within FLOAT_RTOL of the largest reference magnitude in the field;
a profile column counts as one field, so values near a zero crossing are
judged on the column's scale.
"""

import csv
import hashlib
import io
import json
import re

FLOAT_RTOL = 1e-9

_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")


def _bits(text):
    """Largest numerator/denominator bit length in a rational string."""
    return max(abs(int(part)).bit_length() for part in text.split("/"))


def _split(node, path, floats):
    """Copy of a JSON tree with float leaves moved into ``floats``."""
    if isinstance(node, dict):
        return {key: _split(value, f"{path}.{key}", floats) for key, value in node.items()}
    if isinstance(node, list):
        if node and all(isinstance(value, float) for value in node):
            floats[path] = node
            return "<floats>"
        return [_split(value, f"{path}[{i}]", floats) for i, value in enumerate(node)]
    if isinstance(node, float):
        floats[path] = [node]
        return "<float>"
    return node


def _rational_leaves(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _rational_leaves(value)
    elif isinstance(node, list):
        for value in node:
            yield from _rational_leaves(value)
    elif isinstance(node, str) and _RATIONAL.fullmatch(node):
        yield node


def signature(workload, code, error, text):
    """Exact digest, float fields and output bit size of one op."""
    floats = {}
    bits = 0
    if error is not None or code not in (0, 3):
        exact = {"error": error, "text": text}
    elif workload == "matrix":
        exact = text
        bits = max(_bits(token) for token in text.split())
    elif workload == "profile":
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        for column, name in enumerate(header):
            floats[name] = [float(row[column]) for row in body]
        exact = {"header": header, "rows": len(body)}
    else:
        exact = _split(json.loads(text), "", floats)
        bits = max((_bits(leaf) for leaf in _rational_leaves(exact)), default=0)
    blob = json.dumps({"exit": code, "exact": exact}, sort_keys=True)
    return {
        "exit": code,
        "error": error,
        "digest": hashlib.sha256(blob.encode()).hexdigest(),
        "floats": floats,
        "bits": bits,
    }


def _close(got, want, scale):
    return got == want or abs(got - want) <= FLOAT_RTOL * scale


def mismatch(got, ref):
    """Reason the signature ``got`` differs from the reference, or None."""
    if got["error"] is not None:
        return got["error"]
    if got["exit"] != ref["exit"]:
        return f"exit {got['exit']}, reference {ref['exit']}"
    if got["digest"] != ref["digest"]:
        return "exact output differs from the reference digest"
    if set(got["floats"]) != set(ref["floats"]):
        return "float fields differ from the reference"
    for field, want in ref["floats"].items():
        have = got["floats"][field]
        scale = max((abs(v) for v in want), default=0.0)
        if len(have) != len(want) or not all(
            _close(a, b, scale) for a, b in zip(have, want)
        ):
            return f"float field {field} outside relative tolerance {FLOAT_RTOL}"
    return None
