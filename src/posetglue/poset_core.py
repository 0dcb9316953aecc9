"""Finite posets: construction from generators, Hasse diagrams, sums,
products, isomorphism testing, and JSON/DOT input-output.

Element identifiers are opaque strings. The element list's order is the
canonical enumeration order: every matrix built downstream indexes rows and
columns by it, so keeping it stable is what makes the whole pipeline
deterministic. Values are immutable after construction.
"""
from __future__ import annotations

from .errors import CycleError, ParseError, SizeLimit, UnknownElement


class Poset:
    """A finite partially ordered set.

    `elements` is the canonical enumeration order; `leq` holds the full
    reflexive-transitive closure as a frozenset of ordered pairs. Construct
    via :func:`poset_from_generators` (or the JSON loader), which computes the
    closure and rejects cycles; the raw constructor trusts its input.
    Its Hasse diagram, its covers in element order and its cover triangles,
    flat and grouped by cover, are computed on first use and kept.
    """

    __slots__ = (
        "elements", "leq", "_index", "_up", "_down", "_height", "_hasse", "_covers",
        "_fans", "_triangles",
    )

    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        self.leq = frozenset(leq)
        self._index = _index_of(self.elements)
        up = {e: [] for e in self.elements}
        down = {e: [] for e in self.elements}
        for a, b in self.leq:
            up[a].append(b)
            down[b].append(a)
        self._up = {e: frozenset(v) for e, v in up.items()}
        self._down = {e: frozenset(v) for e, v in down.items()}
        # Longest-chain height, used by DOT ranks and isomorphism pruning.
        heights = {}
        for e in sorted(self.elements, key=lambda e: len(self._down[e])):
            heights[e] = 1 + max(
                (heights[d] for d in self._down[e] if d != e), default=-1
            )
        self._height = heights
        self._hasse = None
        self._covers = None
        self._fans = None
        self._triangles = None

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self.leq == other.leq
        )

    def __hash__(self):
        return hash((self.elements, self.leq))

    def __repr__(self):
        return f"Poset({list(self.elements)}, {len(self.leq)} relations)"

    def index(self, e):
        try:
            return self._index[e]
        except (KeyError, TypeError):  # an unhashable value is no element either
            raise UnknownElement(e) from None

    def __contains__(self, e):
        return e in self._index

    def le(self, a, b) -> bool:
        self.index(a)
        self.index(b)
        return (a, b) in self.leq

    def up_set(self, e) -> frozenset:
        """All elements above or equal to e (the principal up-set)."""
        self.index(e)
        return self._up[e]

    def down_set(self, e) -> frozenset:
        """All elements below or equal to e (the principal down-set)."""
        self.index(e)
        return self._down[e]

    def height(self, e) -> int:
        self.index(e)
        return self._height[e]

    def same_order(self, other) -> bool:
        """Equality as orders: same element set and same relation, any enumeration."""
        return set(self.elements) == set(other.elements) and self.leq == other.leq


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
    pairs = [(a, b) for a, b in generating_pairs]
    n = len(elements)
    # Reachability as bitmasks, by one pass over a topological order (Kahn):
    # each element reaches itself and whatever its successors reach, and
    # taken in reverse order its successors are done before it.
    succ = [[] for _ in range(n)]
    indegree = [0] * n
    for a, b in pairs:
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
        raise CycleError(_find_cycle(elements, index, pairs, *_first_cycle_pair(succ)))
    reach = [0] * n
    for i in reversed(order):
        r = 1 << i
        for j in succ[i]:
            r |= reach[j]
        reach[i] = r
    leq = set()
    for i, a in enumerate(elements):
        r = reach[i]
        while r:
            low = r & -r
            leq.add((a, elements[low.bit_length() - 1]))
            r ^= low
    return Poset(elements, leq)


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


def _find_cycle(elements, index, pairs, i, j):
    """A concrete generator path i -> j -> i, for the CycleError message.
    The closure found i and j on a cycle along these edges, so both exist."""
    adj = {e: [] for e in elements}
    for a, b in pairs:
        adj[a].append(b)

    def path(src, dst):
        prev = {src: None}
        queue = [src]
        while queue:
            cur = queue.pop(0)
            if cur == dst:
                out = [cur]
                while prev[cur] is not None:
                    cur = prev[cur]
                    out.append(cur)
                return out[::-1]
            for nxt in adj[cur]:
                if nxt not in prev:
                    prev[nxt] = cur
                    queue.append(nxt)

    a, b = elements[i], elements[j]
    return path(a, b) + path(b, a)[1:]


def hasse(p: Poset) -> HasseDiagram:
    """Transitive reduction: edges (a, b) with a < b and nothing strictly
    between.  With S the strict up-set of a, b in S is a cover iff S meets
    the down-set of b in b alone."""
    if p._hasse is None:
        edges = set()
        for a in p.elements:
            above = p._up[a] - {a}
            edges.update((a, b) for b in above if len(above & p._down[b]) == 1)
        p._hasse = HasseDiagram(edges)
    return p._hasse


def in_element_order(p: Poset, pairs) -> list:
    """pairs of p's elements in element order, so that every walk over them,
    and the first failure it names, is the same on every run."""
    return sorted(pairs, key=lambda ab: (p.index(ab[0]), p.index(ab[1])))


def covers(p: Poset) -> tuple:
    """The Hasse edges in element order (see in_element_order), sorted once
    per order and kept on it as a tuple, which no caller can change."""
    if p._covers is None:
        p._covers = tuple(in_element_order(p, hasse(p).edges))
    return p._covers


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

    Every kept pair is a pair of support, so the count of the kept maps
    against that of the pairs of support tells whether one is missing."""
    leq = p.leq
    if support is None:
        kept = dict(maps)
    else:
        kept = {
            ab: f for ab, f in _items(maps, "restrictions", "pair")
            if ab in leq and ab[0] in support and ab[1] in support
        }
    for a in p.elements:
        if (a, a) not in kept and (support is None or a in support):
            kept[a, a] = identity(a)
    wanted = len(leq) if support is None else sum(len(p._up[a] & support) for a in support)
    if len(kept) != wanted or not leq.issuperset(maps):
        pairs = leq if support is None else [
            (a, b) for a in support for b in p._up[a] if b in support
        ]
        missing = in_element_order(p, [ab for ab in pairs if ab not in kept])
        if missing:
            a, b = missing[0]
            raise ParseError(f"no restriction for {a!r} <= {b!r}")
        a, b = next(ab for ab in maps if ab not in leq)
        raise ParseError(f"restriction given for unrelated pair {a!r}, {b!r}")
    return kept


def _fans(p: Poset) -> tuple:
    """The cover triangles grouped by Hasse edge: (a, b, above) for each
    edge a < b in element order, above being the elements c > b in element
    order, one tuple per b shared by its edges.  Computed once per order and
    kept on it."""
    if p._fans is None:
        above, fans = {}, []
        for a, b in covers(p):
            if b not in above:
                above[b] = tuple(sorted(p._up[b] - {b}, key=p.index))
            fans.append((a, b, above[b]))
        p._fans = tuple(fans)
    return p._fans


def cover_triangles(p: Poset) -> tuple:
    """Triangles (a, b, c) with a Hasse edge a < b and c > b, in element order.

    Maps r(a, b), one per a <= b with r(a, a) the identity, compose on all of
    a <= b <= c once they compose on these.  By induction on the longest
    chain from a to b (a = b is trivial): pick a cover a < a2 <= b; then
    r(b, c)·r(a, b) = r(b, c)·r(a2, b)·r(a, a2)   [cover triangle (a, a2, b)]
                    = r(a2, c)·r(a, a2)           [induction, a2 to b]
                    = r(a, c)                     [cover triangle (a, a2, c)].
    The degenerate triangles (a, b, b) are left out: the steps that would use
    them fall to the identity check.  When a2 = b, the first step is
    r(b, b) = id and the second is trivial; when a2 = c (so a2 = b = c), the
    last step is r(c, c) = id.  Every caller checks each r(b, b) against the
    identity before it walks these triangles.
    """
    if p._triangles is None:
        p._triangles = tuple((a, b, c) for a, b, above in _fans(p) for c in above)
    return p._triangles


def _failing_triangle(p: Poset, r, commutes):
    """The first cover triangle (a, b, c) of p, in walk order, on which the
    maps r, keyed by the pairs a <= b of p, do not compose:
    commutes(r[b, c], r[a, b], r[a, c]) is false.  None if there is none.

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
        pm = {e: "L." + e for e in p.elements}
        qm = {e: "R." + e for e in q.elements}
        p = Poset([pm[e] for e in p.elements],
                  {(pm[a], pm[b]) for a, b in p.leq})
        q = Poset([qm[e] for e in q.elements],
                  {(qm[a], qm[b]) for a, b in q.leq})
    return p, q


def ordinal_sum(p: Poset, q: Poset) -> Poset:
    """Disjoint union with everything in p below everything in q."""
    p, q = _disjoint_labels(p, q)
    leq = set(p.leq) | set(q.leq)
    leq.update((a, b) for a in p.elements for b in q.elements)
    return Poset(p.elements + q.elements, leq)


def direct_sum(p: Poset, q: Poset) -> Poset:
    """Disjoint union with no cross relations."""
    p, q = _disjoint_labels(p, q)
    return Poset(p.elements + q.elements, set(p.leq) | set(q.leq))


def opposite(p: Poset) -> Poset:
    """Same elements, reversed order."""
    return Poset(p.elements, {(b, a) for a, b in p.leq})


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
    leq = set()
    for a in p.elements:
        for b in q.elements:
            for a2 in p.up_set(a):
                for b2 in q.up_set(b):
                    leq.add((label[(a, b)], label[(a2, b2)]))
    return Poset(elements, leq)


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
    if len(p) == 0:
        return {}

    cover_p = _cover_maps(p)
    cover_q = _cover_maps(q)

    def refine(poset, covers):
        color = {
            e: (len(poset.down_set(e)), len(poset.up_set(e)), poset.height(e))
            for e in poset.elements
        }
        for _ in range(len(poset)):
            ranks = {c: i for i, c in enumerate(sorted(set(color.values())))}
            new = {
                e: (
                    ranks[color[e]],
                    tuple(sorted(ranks[color[u]] for u in covers[0][e])),
                    tuple(sorted(ranks[color[d]] for d in covers[1][e])),
                )
                for e in poset.elements
            }
            if len(set(new.values())) == len(set(color.values())):
                color = new
                break
            color = new
        return color

    col_p = refine(p, cover_p)
    col_q = refine(q, cover_q)
    from collections import Counter

    if Counter(col_p.values()) != Counter(col_q.values()):
        return None

    # Match rarest color classes first.
    by_color_q = {}
    for e in q.elements:
        by_color_q.setdefault(col_q[e], []).append(e)
    order = sorted(p.elements, key=lambda e: (len(by_color_q[col_p[e]]), p.index(e)))

    mapping = {}
    used = set()

    def consistent(a, b):
        for a2, b2 in mapping.items():
            if p.le(a, a2) != q.le(b, b2) or p.le(a2, a) != q.le(b2, b):
                return False
        return True

    def backtrack(i):
        if i == len(order):
            return True
        a = order[i]
        for b in by_color_q[col_p[a]]:
            if b in used:
                continue
            if consistent(a, b):
                mapping[a] = b
                used.add(b)
                if backtrack(i + 1):
                    return True
                del mapping[a]
                used.discard(b)
        return False

    if backtrack(0):
        return dict(mapping)
    return None


def _cover_maps(p: Poset):
    h = hasse(p)
    up = {e: [] for e in p.elements}
    down = {e: [] for e in p.elements}
    for a, b in h.edges:
        up[a].append(b)
        down[b].append(a)
    return up, down


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
