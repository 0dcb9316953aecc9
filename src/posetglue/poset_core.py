"""Finite posets: construction from generators, Hasse diagrams, sums,
products, isomorphism testing, and JSON/DOT input-output.

Element identifiers are opaque strings. The element list's order is the
canonical enumeration order: every matrix built downstream indexes rows and
columns by it, so keeping it stable is what makes the whole pipeline
deterministic. Values are immutable after construction.
"""
from __future__ import annotations

from collections import Counter, deque
from functools import reduce
from operator import or_

from .errors import CycleError, ParseError, SizeLimit, UnknownElement


class Poset:
    """A finite partially ordered set.

    `elements` is the canonical enumeration order, and the order is held as
    two bit masks per element index and nothing else: bit j of the up-set
    mask of element i is set when elements[i] <= elements[j], and the
    down-set masks are the same relation transposed.  `le` tests one bit.
    `leq` (the relation as a frozenset of ordered pairs), `up_set`,
    `down_set` and `height` are views of the masks, each made on first read
    and kept.  Construct via :func:`poset_from_generators` (or the JSON
    loader), which computes the closure and rejects cycles; the raw
    constructor takes the pairs of a relation and trusts them.
    Its Hasse diagram, its covers in element order and its cover triangles
    grouped by cover (_fans) are computed on first use and kept.
    """

    __slots__ = (
        "elements", "_index", "_up", "_down", "_related", "_leq", "_up_sets",
        "_down_sets", "_height", "_hasse", "_covers", "_fans",
    )

    def __init__(self, elements, leq):
        elements = tuple(elements)
        index = _index_of(elements)
        up, down = [0] * len(elements), [0] * len(elements)
        for a, b in leq:
            up[index[a]] |= 1 << index[b]
            down[index[b]] |= 1 << index[a]
        self._set(elements, up, down)

    @classmethod
    def _from_masks(cls, elements, up, down):
        """The poset of the given up-set and down-set masks, by element
        index; the masks are trusted to be one relation and its transpose."""
        p = object.__new__(cls)
        p._set(tuple(elements), up, down)
        return p

    def _set(self, elements, up, down):
        self.elements, self._index = elements, _index_of(elements)
        self._up, self._down, self._up_sets, self._down_sets = tuple(up), tuple(down), {}, {}
        self._related = self._leq = self._height = self._hasse = None
        self._covers = self._fans = None

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self._up == other._up
        )

    def __hash__(self):
        return hash((self.elements, self._up))

    def __repr__(self):
        return f"Poset({list(self.elements)}, {sum(m.bit_count() for m in self._up)} relations)"

    @property
    def leq(self) -> frozenset:
        """The relation as a frozenset of pairs (a, b) with a <= b."""
        if self._leq is None:
            self._leq = frozenset(_pairs(self))
        return self._leq

    def index(self, e):
        try:
            return self._index[e]
        except (KeyError, TypeError):  # an unhashable value is no element either
            raise UnknownElement(e) from None

    def __contains__(self, e):
        return e in self._index

    def le(self, a, b) -> bool:
        return self._up[self.index(a)] >> self.index(b) & 1 == 1

    def up_set(self, e) -> frozenset:
        """All elements above or equal to e (the principal up-set)."""
        return _view(self, self._up, self._up_sets, self.index(e))

    def down_set(self, e) -> frozenset:
        """All elements below or equal to e (the principal down-set)."""
        return _view(self, self._down, self._down_sets, self.index(e))

    def height(self, e) -> int:
        if self._height is None:
            # Longest-chain height, used by DOT ranks and isomorphism pruning;
            # a strict down-set has fewer elements, so it is done first.
            h = self._height = [0] * len(self)
            for k in sorted(range(len(h)), key=lambda k: self._down[k].bit_count()):
                h[k] = 1 + max((h[j] for j in _bits(self._down[k]) if j != k), default=-1)
        return self._height[self.index(e)]

    def same_order(self, other) -> bool:
        """Equality as orders: same element set and same relation, any enumeration."""
        return set(self.elements) == set(other.elements) and self.leq == other.leq


def _view(p: Poset, masks, views: dict, i: int) -> frozenset:
    """The elements of masks[i] as a frozenset, made once and kept in views."""
    if i not in views:
        views[i] = frozenset(map(p.elements.__getitem__, _bits(masks[i])))
    return views[i]


#: _DIGIT_BITS[k][c]: the positions of the set bits of a mask whose
#: hexadecimal digit k, from the low end, is c, for the low sixteen digits.
_DIGIT_BITS = [
    {c: tuple(4 * k + j for j in range(4) if int(c, 16) >> j & 1) for c in "0123456789abcdef"}
    for k in range(16)
]


def _bits(mask: int) -> list:
    """The positions of the set bits of mask, lowest first: below bit 64
    by the table of each hexadecimal digit, above it by searching the
    binary digits."""
    if mask >> 64:
        digits = bin(mask)[:1:-1]
        out, i = [], digits.find("1")
        while i >= 0:
            out.append(i)
            i = digits.find("1", i + 1)
        return out
    out = []
    for row, c in zip(_DIGIT_BITS, hex(mask)[:1:-1]):
        out += row[c]
    return out


def _pairs(p: Poset) -> tuple:
    """The pairs (a, b) with a <= b in p, in element order (by the index of
    a, then of b), so that every walk over them, and the first failure it
    names, is the same on every run.  Made on first use and kept on p, so
    the restriction dicts of p's formulas share their key pairs."""
    if p._related is None:
        elements = p.elements
        p._related = tuple([(a, elements[j]) for a, m in zip(elements, p._up) for j in _bits(m)])
    return p._related


def _index_of(elements) -> dict:
    """Position of each element; ParseError naming the first repeated one."""
    index = {}
    for i, e in enumerate(elements):
        if e in index:
            raise ParseError(f"duplicate element identifier {e!r}")
        index[e] = i
    return index


class HasseDiagram:
    """Covering relation of a poset: the transitive reduction of its strict order."""

    __slots__ = ("edges",)

    def __init__(self, edges):
        self.edges = frozenset(edges)


def poset_from_generators(elements, generating_pairs) -> Poset:
    """Build a poset as the reflexive-transitive closure of generating pairs.

    Raises UnknownElement if a pair mentions an unlisted element, and
    CycleError (naming a violating cycle) if the closure is not antisymmetric.
    """
    elements = list(elements)
    index = _index_of(elements)
    n = len(elements)
    # Reachability as bitmasks, by one pass over a topological order (Kahn):
    # each element reaches itself and whatever its successors reach, and
    # taken in reverse order its successors are done before it.
    succ = [[] for _ in range(n)]
    indegree = [0] * n
    for a, b in generating_pairs:
        i, j = index.get(a), index.get(b)
        if i is None:
            raise UnknownElement(a)
        if j is None:
            raise UnknownElement(b)
        if i != j:
            succ[i].append(j)
            indegree[j] += 1
    order = [i for i in range(n) if not indegree[i]]
    for i in order:  # grows while it is walked
        for j in succ[i]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < n:
        raise CycleError(_find_cycle(elements, succ, *_first_cycle_pair(succ)))
    up = [0] * n
    for i in reversed(order):
        r = 1 << i
        for j in succ[i]:
            r |= up[j]
        up[i] = r
    # and each element's down-set, by the same order forwards: its
    # predecessors come before it
    down = [1 << i for i in range(n)]
    for i in order:
        for j in succ[i]:
            down[j] |= down[i]
    return Poset._from_masks(elements, up, down)


def _first_cycle_pair(succ) -> tuple:
    """The first (i, j), i != j, in row-major order with each of i and j
    reachable from the other along the edges succ, as Warshall's closure
    would meet it: i is the first element on a cycle and j the first other
    element of its strongly connected component."""
    n = len(succ)
    reach = []
    for i in range(n):
        seen, stack = 1 << i, [i]
        while stack:
            for j in succ[stack.pop()]:
                if not seen >> j & 1:
                    seen |= 1 << j
                    stack.append(j)
        reach.append(seen)
    return next(
        (i, j) for i in range(n) for j in range(n)
        if i != j and reach[i] >> j & 1 and reach[j] >> i & 1
    )


def _find_cycle(elements, succ, i, j):
    """A concrete generator path i -> j -> i, for the CycleError message.
    The closure found i and j on a cycle along the edges succ, so both
    paths exist."""

    def moves(k):
        return [(None, m) for m in succ[k]]

    steps = _shortest_path(i, j, moves) + _shortest_path(j, i, moves)
    return [elements[k] for k in [i] + [after for _, _, after in steps]]


def _shortest_path(start, goal, moves):
    """A shortest path from start to goal, by breadth-first search, as its
    steps (before, label, after), or None when goal is out of reach.
    moves(state) lists the pairs (label, next state) in the order they are
    tried, and a state keeps the first step that reached it."""
    parent = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == goal:
            steps = []
            while parent[state] is not None:
                before, label = parent[state]
                steps.append((before, label, state))
                state = before
            return steps[::-1]
        for label, nxt in moves(state):
            if nxt not in parent:
                parent[nxt] = state, label
                queue.append(nxt)
    return None


def hasse(p: Poset) -> HasseDiagram:
    """Transitive reduction: edges (a, b) with a < b and nothing strictly
    between (Aho, Garey and Ullman 1972): with S the strict up-set of a,
    the covers of a are S less the strict up-sets of the members of S."""
    if p._hasse is None:
        p._hasse = HasseDiagram(covers(p))
    return p._hasse


def covers(p: Poset) -> tuple:
    """The Hasse edges in element order (by the index of a, then of b),
    made once per order from the masks and kept on it as a tuple, which no
    caller can change."""
    if p._covers is None:
        elements, strict = p.elements, _strict_up(p)
        p._covers = tuple([
            (a, elements[b])
            for a, s in zip(elements, strict) if s
            for b in _bits(s & ~reduce(or_, [strict[c] for c in _bits(s)]))
        ])
    return p._covers


def _strict_up(p: Poset) -> list:
    """The strict up-set mask of each element, by index."""
    return [m & ~(1 << i) for i, m in enumerate(p._up)]


def _items(mapping, what: str, by: str):
    """mapping.items(); if it is not a mapping, ParseError naming the value:
    "<what> must be a mapping by <by>"."""
    try:
        return mapping.items()
    except AttributeError:
        raise ParseError(f"{what} must be a mapping by {by}, got {mapping!r}") from None


def require_elements(p: Poset, mapping, what: str) -> None:
    """ParseError unless the keys of mapping are exactly the elements of p,
    naming the first element without an entry or else the first stray key."""
    for e in p.elements:
        if e not in mapping:
            raise ParseError(f"no {what} at element {e!r}")
    if len(mapping) != len(p.elements):
        stray = next(k for k in mapping if k not in p)
        raise ParseError(f"{what} given at {stray!r}, which is not an element")


def require_relations(p: Poset, maps, identity, support=None) -> dict:
    """The maps of a diagram over p whose objects outside support are zero,
    as a new dict keyed by pairs a <= b of p: each map of maps whose two ends
    lie in support (a set of p's elements; None stands for all of them), with
    identity(a) at each pair (a, a) of support that maps lacks.  A map into
    or out of a zero object is zero, so a given pair with an end outside
    support is left out, and need not be given.  ParseError unless every
    key of maps is a pair of p and every pair of support has a map, naming
    the first pair of support without one in element order, or else the
    first key that is not a pair of p.

    A key is kept when it is a pair of p's elements in support, a <= b by
    the masks; the kept pairs are distinct, so their count against that of
    the pairs of support tells whether one is missing.  A map left out must
    still be keyed by a pair of p."""
    index, up = p._index, p._up
    within = index if support is None else support
    kept = {
        ab: f for ab, f in _items(maps, "restrictions", "pair")
        if isinstance(ab, tuple) and len(ab) == 2 and ab[0] in within and ab[1] in within
        and up[index[ab[0]]] >> index[ab[1]] & 1
    }
    left_out = len(kept) < len(maps)
    for a in p.elements:
        if (a, a) not in kept and a in within:
            kept[a, a] = identity(a)
    inside = sum(1 << index[x] for x in within)
    wanted = sum((up[index[x]] & inside).bit_count() for x in within)
    if len(kept) == wanted and not (left_out and (support is None or not p.leq.issuperset(maps))):
        return kept
    for a, b in _pairs(p):
        if a in within and b in within and (a, b) not in kept:
            raise ParseError(f"no restriction for {a!r} <= {b!r}")
    a, b = next(ab for ab in maps if ab not in p.leq)
    raise ParseError(f"restriction given for unrelated pair {a!r}, {b!r}")


def _fans(p: Poset) -> tuple:
    """The cover triangles grouped by Hasse edge: (a, b, above) for each
    edge a < b in element order, above being the elements c > b in element
    order, one tuple per b shared by its edges.  Computed once per order and
    kept on it."""
    if p._fans is None:
        elements, above, fans = p.elements, {}, []
        for a, b in covers(p):
            if b not in above:
                j = p._index[b]
                above[b] = tuple([elements[c] for c in _bits(p._up[j] & ~(1 << j))])
            fans.append((a, b, above[b]))
        p._fans = tuple(fans)
    return p._fans


def _failing_triangle(p: Poset, r, commutes):
    """The first cover triangle (a, b, c) of p, in walk order, on which the
    maps r, keyed by the pairs a <= b of p, do not compose:
    commutes(r[b, c], r[a, b], r[a, c]) is false.  None if there is none.

    The cover triangles are the (a, b, c) with a Hasse edge a < b and
    c > b, walked in element order off _fans.  Maps r(a, b), one per
    a <= b with r(a, a) the identity, compose on all of a <= b <= c once
    they compose on these.  By induction on the longest chain from a to b
    (a = b is trivial): pick a cover a < a2 <= b; then
    r(b, c)·r(a, b) = r(b, c)·r(a2, b)·r(a, a2)   [cover triangle (a, a2, b)]
                    = r(a2, c)·r(a, a2)           [induction, a2 to b]
                    = r(a, c)                     [cover triangle (a, a2, c)].
    The degenerate triangles (a, b, b) are left out: the steps that would
    use them fall to the identity check.  When a2 = b, the first step is
    r(b, b) = id and the second is trivial; when a2 = c (so a2 = b = c), the
    last step is r(c, c) = id.  Every caller checks each r(b, b) against
    the identity before it walks these triangles.

    r may omit maps as require_relations omits them, those with an end
    outside a support set, each being zero: it then holds r(a, a) exactly
    for a in the support, and, for such a, r(a, c) exactly when c is in it
    too.  The walk visits the triangles whose a and c lie in the support
    and gives commutes None for an omitted r(a, b) or r(b, c).  That is the
    whole check: if a or c is outside the support, r(a, c) and one factor
    of r(b, c)·r(a, b) are zero, and the triangle holds; if b is, both
    factors are omitted and commutes(None, None, r(a, c)) asks for
    r(a, c) = 0, what the product of the zero maps asks.  With every map
    given, every triangle is walked.

    commutes reads the three objects it is given and nothing else, so it
    runs once per distinct triple of objects: a repeated triple has the
    result of its first triangle, which passed, and the first failing
    triangle in walk order is still the witness.  r keeps the objects, so
    their ids stay unique while the walk runs."""
    seen, get = set(), r.get
    for a, b, above in _fans(p):
        if (a, a) not in r:
            continue
        f = get((a, b))
        for c in above:
            h = get((a, c))
            if h is None:
                continue
            g = get((b, c))
            triple = id(g), id(f), id(h)
            if triple not in seen:
                seen.add(triple)
                if not commutes(g, f, h):
                    return a, b, c
    return None


def _failing_square(p: Poset, target_r, components, source_r, commutes):
    """The first Hasse edge (a, b) of p, in element order, whose naturality
    square does not commute: commutes(target_r[a, b], components[a],
    components[b], source_r[a, b]) is false, the two composites
    target_r[a, b]·components[a] and components[b]·source_r[a, b] being
    different.  None if there is none.

    A map that target_r or source_r omits, as require_relations omits the
    maps with a zero end, is zero and given to commutes as None; every
    square is still compared.  With the target's map into or out of a zero
    object omitted, the square asks for components[b]·source_r[a, b] = 0,
    and with the source's omitted, for target_r[a, b]·components[a] = 0.

    As in _failing_triangle, commutes reads its four objects and nothing
    else, so it runs once per distinct quadruple of objects, and the first
    failing edge is still the witness; the three maps keep the objects."""
    seen = set()
    for a, b in covers(p):
        square = target_r.get((a, b)), components[a], components[b], source_r.get((a, b))
        quadruple = tuple(map(id, square))
        if quadruple not in seen:
            seen.add(quadruple)
            if not commutes(*square):
                return a, b
    return None


def _disjoint_labels(p: Poset, q: Poset):
    """Relabel with 'L.'/'R.' prefixes when the two element sets collide."""
    if set(p.elements) & set(q.elements):
        p = Poset._from_masks(["L." + e for e in p.elements], p._up, p._down)
        q = Poset._from_masks(["R." + e for e in q.elements], q._up, q._down)
    return p, q


def ordinal_sum(p: Poset, q: Poset) -> Poset:
    """Disjoint union with everything in p below everything in q."""
    p, q = _disjoint_labels(p, q)
    n, top = len(p), ((1 << len(q)) - 1) << len(p)
    up = [u | top for u in p._up] + [u << n for u in q._up]
    down = [*p._down, *(d << n | (1 << n) - 1 for d in q._down)]
    return Poset._from_masks(p.elements + q.elements, up, down)


def direct_sum(p: Poset, q: Poset) -> Poset:
    """Disjoint union with no cross relations."""
    p, q = _disjoint_labels(p, q)
    up, down = [*p._up, *(u << len(p) for u in q._up)], [*p._down, *(d << len(p) for d in q._down)]
    return Poset._from_masks(p.elements + q.elements, up, down)


def opposite(p: Poset) -> Poset:
    """Same elements, reversed order."""
    return Poset._from_masks(p.elements, p._down, p._up)


#: Backslash-escapes for the characters that delimit a product label.
_PAIR_ESCAPES = str.maketrans({c: "\\" + c for c in "\\,()"})


def product(p: Poset, q: Poset) -> Poset:
    """Componentwise order on pairs; labels are '(a,b)' in p-major order.

    Inside each component a backslash, comma or parenthesis is escaped with
    a backslash, so distinct pairs get distinct labels; other names are kept.
    """
    label = {
        (a, b): f"({a.translate(_PAIR_ESCAPES)},{b.translate(_PAIR_ESCAPES)})"
        for a in p.elements for b in q.elements
    }
    elements = [label[(a, b)] for a in p.elements for b in q.elements]
    # (a, b) has index a * len(q) + b, so the pairs above or below it are
    # q's mask for b moved to the block of each a2 above or below a
    n = len(q)
    up = [sum(u << a2 * n for a2 in _bits(pu)) for pu in p._up for u in q._up]
    down = [sum(d << a2 * n for a2 in _bits(pd)) for pd in p._down for d in q._down]
    return Poset._from_masks(elements, up, down)


def point_poset(label="*") -> Poset:
    """The one-point poset."""
    return Poset([label], {(label, label)})


def is_isomorphic(p: Poset, q: Poset):
    """An order-isomorphism p -> q as a dict, or None if none exists.

    Exact backtracking with iterated invariant refinement for pruning.
    Unequal sizes return None immediately; equal sizes above 12 raise
    SizeLimit, because the search is exponential in the worst case.
    """
    if len(p) != len(q):
        return None
    if len(p) > 12:
        raise SizeLimit("isomorphism search capped at 12 elements")
    col_p, col_q = _colors(p), _colors(q)
    if Counter(col_p) != Counter(col_q):
        return None
    # Match rarest color classes first, by element index.
    by_color_q = {}
    for j, c in enumerate(col_q):
        by_color_q.setdefault(c, []).append(j)
    order = sorted(range(len(p)), key=lambda i: (len(by_color_q[col_p[i]]), i))
    mapping = {}

    def backtrack(k):
        if k == len(order):
            return True
        i = order[k]
        for j in by_color_q[col_p[i]]:
            if j not in mapping.values() and all(
                (p._up[i] >> i2 & 1, p._up[i2] >> i & 1) == (q._up[j] >> j2 & 1, q._up[j2] >> j & 1)
                for i2, j2 in mapping.items()
            ):
                mapping[i] = j
                if backtrack(k + 1):
                    return True
                del mapping[i]
        return False

    if backtrack(0):
        return {p.elements[i]: q.elements[j] for i, j in mapping.items()}
    return None


def _colors(p: Poset) -> list:
    """The color of each element index for the isomorphism search: the
    sizes of its down-set and up-set and its height, refined by the colors
    of the elements it covers and is covered by until no class splits."""
    above, below = [[] for _ in p.elements], [[] for _ in p.elements]
    for a, b in covers(p):
        above[p._index[a]].append(p._index[b])
        below[p._index[b]].append(p._index[a])
    color = [
        (d.bit_count(), u.bit_count(), p.height(e)) for e, u, d in zip(p.elements, p._up, p._down)
    ]
    for _ in range(len(p)):
        ranks = {c: i for i, c in enumerate(sorted(set(color)))}
        new = [
            (ranks[c], *(tuple(sorted(ranks[color[k]] for k in ks)) for ks in (up, down)))
            for c, up, down in zip(color, above, below)
        ]
        split = len(set(new)) != len(set(color))
        color = new
        if not split:
            break
    return color


# --- JSON / DOT ------------------------------------------------------------

def poset_to_json(p: Poset) -> dict:
    """JSON form: elements plus generating relations (the Hasse edges)."""
    return {"elements": list(p.elements), "relations": [list(e) for e in covers(p)]}


def poset_from_json(doc) -> Poset:
    if not isinstance(doc, dict) or "elements" not in doc:
        raise ParseError("poset JSON needs an 'elements' list")
    unknown = sorted(set(doc) - {"elements", "relations"}, key=str)
    if unknown:
        raise ParseError(f"poset JSON has unknown keys {unknown}")
    elements = doc["elements"]
    relations = doc.get("relations", [])
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ParseError("'elements' must be a list of strings")
    if not isinstance(relations, list) or not all(
        isinstance(r, list) and len(r) == 2 and all(isinstance(e, str) for e in r)
        for r in relations
    ):
        raise ParseError("'relations' must be a list of [a, b] pairs of strings")
    return poset_from_generators(elements, [tuple(r) for r in relations])


def poset_to_dot(p: Poset, name: str = "poset") -> str:
    """DOT drawing: one node per element, one arrow per Hasse edge,
    elements of equal longest-chain height share a rank, maxima on top."""
    def quote(s):
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = [f"digraph {quote(name)} {{", "  rankdir=BT;"]
    for e in p.elements:
        lines.append(f"  {quote(e)};")
    for a, b in covers(p):
        lines.append(f"  {quote(a)} -> {quote(b)};")
    by_height = {}
    for e in p.elements:
        by_height.setdefault(p.height(e), []).append(e)
    for h in sorted(by_height):
        group = " ".join(quote(e) for e in by_height[h])
        lines.append(f"  {{ rank=same; {group} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"
