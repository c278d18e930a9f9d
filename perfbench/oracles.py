"""Independent oracles for every output the benchmark checks.

Nothing here imports heckemod.  Shapes are read from the program's JSON
format (or built by the benchmark itself) into plain cell sets: a component
is ``(beta, offset, cells)`` where each cell is ``(row, c)``, ``row`` the
1-based grid row and ``c`` the integer part of the box content, so a box's
content is ``c + offset``.  Within a component the left neighbour
``(row, c - 1)`` and the upper neighbour ``(row - 1, c + 1)`` of a box must
carry smaller labels.

Each check returns None when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

_NEIGHBOURS = ((0, 1), (0, -1), (-1, 1), (1, -1))
CONDITION_KINDS = ("AdjacentEqual", "MissingUpStep", "MissingDownStep")


# ---------------------------------------------------------------------------
# shapes

def components_from_json(data: dict) -> list[tuple[int, Fraction, frozenset]]:
    """The components of a shape (or tableau) JSON document, as cell sets."""
    return [(int(comp["beta"]), Fraction(comp["offset"]),
             frozenset((int(r), int(c)) for r, c in comp["cells"]))
            for comp in data["components"]]


def connected_pieces(cells) -> list[frozenset]:
    """Split a cell set into its edge-connected pieces."""
    left = set(cells)
    pieces = []
    while left:
        start = left.pop()
        piece = {start}
        stack = [start]
        while stack:
            r, c = stack.pop()
            for dr, dc in _NEIGHBOURS:
                q = (r + dr, c + dc)
                if q in left:
                    left.remove(q)
                    piece.add(q)
                    stack.append(q)
        pieces.append(frozenset(piece))
    return pieces


def normal_form(ell: int, components) -> tuple:
    """A key equal for two shapes exactly when they are the same shape up to
    sliding each connected piece along its diagonals: the offset's integer
    part is folded into the contents and each piece's rows start at 1."""
    out = []
    for beta, offset, cells in components:
        whole = math.floor(offset)
        for piece in connected_pieces((r, c + whole) for r, c in cells):
            top = min(r for r, _ in piece)
            out.append((beta, offset - whole,
                        tuple(sorted((r - top + 1, c) for r, c in piece))))
    return (ell, tuple(sorted(out)))


def contents(components) -> list[Fraction]:
    return [c + offset for _, offset, cells in components for _, c in cells]


# ---------------------------------------------------------------------------
# counting standard fillings

def hook_count(partitions) -> int:
    """Standard fillings of a tuple of partitions: n! over the product of all
    hook lengths."""
    n = sum(sum(lam) for lam in partitions)
    hooks = 1
    for lam in partitions:
        conj = [sum(1 for p in lam if p > x) for x in range(lam[0])] if lam else []
        for r, row in enumerate(lam):
            for x in range(row):
                hooks *= (row - x - 1) + (conj[x] - r - 1) + 1
    total, rem = divmod(math.factorial(n), hooks)
    if rem:
        raise ArithmeticError("hook product does not divide n!")
    return total


def linear_extensions(cells) -> int:
    """Standard fillings of one connected piece, by counting the linear
    extensions of its cell order (memoised over filled down-sets)."""
    cells = frozenset(cells)

    @lru_cache(maxsize=None)
    def count(filled: frozenset) -> int:
        if len(filled) == len(cells):
            return 1
        total = 0
        for r, c in cells - filled:
            if all(p in filled or p not in cells for p in ((r, c - 1), (r - 1, c + 1))):
                total += count(filled | {(r, c)})
        return total

    return count(frozenset())


def filling_count(components) -> int:
    """Standard fillings of a whole shape: pieces fill independently, so the
    count is the multinomial of the piece sizes times each piece's count."""
    pieces = [p for _, _, cells in components for p in connected_pieces(cells)]
    total = math.factorial(sum(len(p) for p in pieces))
    for p in pieces:
        total = total // math.factorial(len(p)) * linear_extensions(p)
    return total


# ---------------------------------------------------------------------------
# central character

def elementary_symmetric(values) -> list[Fraction]:
    """e_1, ..., e_n of the values."""
    e = [Fraction(1)] + [Fraction(0)] * len(values)
    for v in values:
        for k in range(len(values), 0, -1):
            e[k] += v * e[k - 1]
    return e[1:]


def check_u_character(ell: int, components, cyc_json: list[dict]) -> str | None:
    """The u-part of the central character is e_k of ell times the box
    contents; each value arrives as a field element's JSON (power basis)."""
    expected = elementary_symmetric([ell * x for x in contents(components)])
    if len(cyc_json) != len(expected):
        return f"u-part has {len(cyc_json)} entries, expected {len(expected)}"
    for k, (want, got) in enumerate(zip(expected, cyc_json), start=1):
        coeffs = [Fraction(x) for x in got["coeffs"]]
        if not coeffs or coeffs[0] != want or any(coeffs[1:]):
            return f"e_{k}(u) = {got['coeffs']}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# weights, tableaux and rejection witnesses

def condition_violated(a, b, ell: int) -> bool:
    """The paper's pairwise condition fails: some equal entries i < j have no
    entry strictly between them, of the same colour, at a + ell and at
    a - ell.  Checking each entry against the previous equal one suffices,
    since any longer interval contains such a pair."""
    last = {}
    for j, key in enumerate(zip(a, b)):
        i = last.get(key)
        last[key] = j
        if i is None:
            continue
        between = {a[k] for k in range(i + 1, j) if b[k] == b[j]}
        if a[j] + ell not in between or a[j] - ell not in between:
            return True
    return False


def check_tableau(data: dict, a, b, ell: int) -> str | None:
    """The tableau JSON is a standard filling whose weight is exactly (a, b)."""
    if int(data["ell"]) != ell:
        return f"tableau over ell={data['ell']}, expected {ell}"
    comps = components_from_json(data)
    n = len(a)
    label_at = {}
    box_of = {}
    for r, c, k, lab in data["entries"]:
        if not 0 <= k < len(comps) or (r, c) not in comps[k][2]:
            return f"entry {lab} at ({r}, {c}) lies outside component {k}"
        label_at[(k, r, c)] = lab
        box_of[lab] = (k, r, c)
    if sorted(box_of) != list(range(1, n + 1)) or len(label_at) != n:
        return "entries are not a bijection onto 1..n"
    if sum(len(cells) for _, _, cells in comps) != n:
        return "shape size differs from the weight length"
    for (k, r, c), lab in label_at.items():
        for q in ((k, r, c - 1), (k, r - 1, c + 1)):
            if q in label_at and label_at[q] > lab:
                return f"label {lab} is smaller than a left or upper neighbour"
    for lab in range(1, n + 1):
        k, _, c = box_of[lab]
        beta, offset, _ = comps[k]
        if ell * (c + offset) != a[lab - 1] or beta != b[lab - 1]:
            return f"label {lab} carries ({ell * (c + offset)}, {beta}), " \
                   f"weight says ({a[lab - 1]}, {b[lab - 1]})"
    return None


def check_witness(witness: dict, a, b, ell: int) -> str | None:
    """A rejection witness holds on the weight: entries i < j are equal, and
    either adjacent (AdjacentEqual) or with no same-colour entry strictly
    between at the required value a_i + ell (MissingUpStep) or a_i - ell
    (MissingDownStep)."""
    kind = witness.get("kind")
    i, j = witness.get("i"), witness.get("j")
    if kind not in CONDITION_KINDS:
        return f"unknown witness kind {kind!r}"
    if not (isinstance(i, int) and isinstance(j, int) and 1 <= i < j <= len(a)):
        return f"witness pair ({i}, {j}) out of range"
    i, j = i - 1, j - 1
    if (a[i], b[i]) != (a[j], b[j]):
        return f"witness entries {i + 1} and {j + 1} differ"
    if kind == "AdjacentEqual":
        return None if j == i + 1 else "AdjacentEqual on non-adjacent entries"
    required = a[i] + ell if kind == "MissingUpStep" else a[i] - ell
    if "required_a" not in witness or Fraction(witness["required_a"]) != required:
        return f"required_a {witness.get('required_a')} is not {required}"
    if any(a[k] == required and b[k] == b[i] for k in range(i + 1, j)):
        return f"the required entry {required} does occur between"
    return None
