"""Folded subgroup automata for finitely generated subgroups of free groups.

A SubgroupAutomaton is the Stallings core graph of the subgroup generated by
a tuple of reduced words: a deterministic, involution-closed labeled graph
whose base-to-base loops spell exactly the subgroup's elements.  Besides
membership it supports rewriting members over the original generator tuple
(edges carry expression tags maintained through the folds, so a member's
expression is read off its accepting path) and deciding syllable-exact
prefix acceptance, i.e. membership of an alternating word p with l(p) = i
in the sets L_i(C) and R_i(C).

The graph is stored as g^k chains between branch vertices (the g^k-edge
graphs of Kapovich-Weidmann-Miasnikov, *Foldings, graphs of groups and the
membership problem*, IJAC 2005), so folds and reads cost per syllable, not
per letter.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional

from .errors import InternalInvariantError, NotMemberError, PreconditionError
from .word import IDENTITY, Generator, Word, _concat, gen, substitute

WITNESS_NAME = "g"


def _witness_gen(i: int) -> Generator:
    return gen(WITNESS_NAME, i + 1)


class SubgroupAutomaton:
    """Folded labeled graph deciding membership in <generators>.

    The graph is a set of vertices joined by chains (u, v, g, n, tag): n
    edges u --g--> ... --g--> v through states of degree 2, untagged unless
    n = 1.  A state, or point, is a vertex x (the base is 0) or a pair (c, j)
    for the state j letters into chain c, 0 < j < n.  A fold builds only the
    chain tables; the turn table of prefix acceptance is built on first use.
    """

    def __init__(self, generators: Iterable[Word]):
        self.generators = tuple(generators)
        if not self.generators:
            raise PreconditionError("subgroup needs at least one generator")
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        """Fold the bouquet of generator petals, carrying expression tags.

        The fold is the letter-at-a-time Stallings fold with expression tags,
        run a chain at a time.  Letters are coded by label, 2k for (g_k, -1)
        and 2k + 1 for (g_k, +1), g_k the k-th generator in sort_key order.
        A chain [a, b, k, e0, n, tag, back] holds letters e0..e0+n-1, which
        realize a --g_k^n--> b through n - 1 implicit interior states; back
        is the label its interior states had first in their adjacency (the
        one pointing back along the petal that made them).  Vertices are
        nodes of a weighted union-find: phi(x) = phi(parent[x]) offset[x],
        phi(root) = 1, and a chain's letters are untagged apart from a
        closing letter's witness tag (chains of one letter), so the
        effective tag of its first letter is phi(a), of its last phi(b)^-1,
        and of the letters between 1.  The invariant is that the effective
        tag phi(a) tag phi(b)^-1 of a letter evaluates to P(class a) g
        P(class b)^-1 for a fixed realization P of the state classes with
        P = 1 at the base class.  A fold of two letters with equal source
        and label sets the dying class's offset to the discrepancy of their
        effective tags, which preserves the invariant without touching any
        letter.  Expressions of members are then read off by concatenating
        effective tags along the accepting path.

        A vertex's adjacency maps labels to the end letters of its chains,
        in the order the letter fold would have registered them, and the
        work queue holds end letters.  Two chains that leave one vertex with
        one label fold their first L - 1 letters at once (L the shorter
        length): the longer keeps a vertex there, the other's rest hangs
        off a member of it, and the L-th letters then fold as any two
        letters do.  So every fold step, and every syllable a petal follows
        along the graph before it leaves it, costs O(1) chain operations,
        and the result (classes, offsets, hence tags) is the letter fold's.

        Afterwards letters with a nontrivial effective tag are split off
        into chains of their own, and chains are joined through the degree-2
        vertices the fold left.
        """
        alphabet = sorted({g for w in self.generators for g, _ in w.syls},
                          key=Generator.sort_key)
        code = {g: k for k, g in enumerate(alphabet)}
        parent = [0]
        offset = [IDENTITY]  # phi(x) = phi(parent[x]) * offset[x]; phi(root) = 1
        adj = [{}]           # root -> {label: end letter of a chain}
        owner = {}           # end letter -> live chain [a, b, k, e0, n, tag, back]
        queue = []
        top = 0              # next unused letter id

        def find_phi(x):
            p = parent[x]
            if p == x:
                return x, IDENTITY
            if parent[p] == p:
                return p, offset[x]
            path = []
            while parent[x] != x:
                path.append(x)
                x = parent[x]
            root = x
            acc = IDENTITY
            for y in reversed(path):
                acc = acc * offset[y]
                offset[y] = acc
                parent[y] = root
            return root, offset[path[0]]

        def find(x):
            return x if parent[x] == x else find_phi(x)[0]

        def phi(x):
            return IDENTITY if parent[x] == x else find_phi(x)[1]

        def node(up=None, off=IDENTITY):
            """A new root, or a member of root up at offset off."""
            x = len(parent)
            parent.append(x if up is None else up)
            offset.append(off)
            adj.append({})
            return x

        def chain(a, b, k, e0, n, tag, back):
            rec = [a, b, k, e0, n, tag, back]
            owner[e0] = owner[e0 + n - 1] = rec
            return rec

        def kill(rec):
            owner.pop(rec[3], None)
            owner.pop(rec[3] + rec[4] - 1, None)

        def split(rec, j):
            """Make rec's state j letters from a a vertex; return it."""
            a, b, k, e0, n, _tag, back = rec
            x = node()
            chain(a, x, k, e0, j, IDENTITY, back)
            chain(x, b, k, e0 + j, n - j, IDENTITY, back)
            adj[x] = ({back: e0 + j - 1, back ^ 1: e0 + j} if back == 2 * k
                      else {back: e0 + j, back ^ 1: e0 + j - 1})
            return x

        def cut(rec, j, at_a, y):
            """Drop rec's j < n letters at its a end (at_a) or b end and
            hang the rest off node y; return the rest's end letter at y."""
            a, b, k, e0, n, _tag, back = rec
            if at_a:
                del owner[e0]
                chain(y, b, k, e0 + j, n - j, IDENTITY, back)
                return e0 + j
            del owner[e0 + n - 1]
            chain(a, y, k, e0, n - j, IDENTITY, back)
            return e0 + n - j - 1

        def lead(rec, at_a):
            """The effective tag of rec's end letter at a (at_a) or b, read
            away from that end."""
            a, b, _k, _e0, n, tag, _back = rec
            if at_a:
                out = phi(a)
                return out * tag * phi(b).inverse() if n == 1 else out
            out = phi(b)
            return out * tag.inverse() * phi(a).inverse() if n == 1 else out

        def across(rec, at_a):
            """The effective tag of all of rec, read from its a end (at_a) or b end."""
            if rec[4] == 1:
                return lead(rec, at_a)
            return lead(rec, at_a) * phi(rec[1] if at_a else rec[0]).inverse()

        def merge(dt, kt, delta):
            parent[dt] = kt
            offset[dt] = delta
            moved, adj[dt] = adj[dt], None
            queue.extend(e for e in moved.values() if e in owner)

        def fold(state, lab, keep, gone):
            """Fold end letter gone into end letter keep, both leaving state with lab."""
            K, G = owner[keep], owner[gone]
            at_a = lab & 1
            kn, gn = K[4], G[4]
            if kn > 1 and gn > 1:
                # letters 1..L-1 fold into K's interior, which no other
                # letter touches; the L-th letters fold next
                j = min(kn, gn) - 1
                delta = lead(K, at_a).inverse() * lead(G, at_a)
                x = split(K, j if at_a else kn - j)
                queue.append(cut(G, j, at_a, node(x, delta)))
                return
            kfar, gfar = (K[1], G[1]) if at_a else (K[0], G[0])
            if gn > 1:
                # K is one letter: G's first interior state joins K's far end
                y = node(find(kfar), lead(K, at_a).inverse() * lead(G, at_a))
                queue.append(cut(G, 1, at_a, y))
                queue.append(keep)
                return
            dt = find(gfar)
            if kn > 1:
                if dt == find(0):
                    # the base class must survive: G's letter stays, and K's
                    # first interior state joins the base
                    adj[state][lab] = gone
                    z = node(dt, lead(G, at_a).inverse() * lead(K, at_a))
                    queue.append(cut(K, 1, at_a, z))
                    queue.append(gone)
                    return
                delta = lead(K, at_a).inverse() * lead(G, at_a)
                kill(G)
                merge(dt, split(K, 1 if at_a else kn - 1), delta)
                queue.append(keep)
                return
            kt = find(kfar)
            if kt != dt and dt == find(0):
                keep, gone, K, G, kt, dt = gone, keep, G, K, dt, kt
                adj[state][lab] = keep
            kill(G)
            if kt != dt:
                merge(dt, kt, lead(K, at_a).inverse() * lead(G, at_a))
            queue.append(keep)

        def insert(eid):
            rec = owner.get(eid)
            if rec is None:
                return
            a, b, k, e0, n = rec[:5]
            for raw, lab, here in ((a, 2 * k + 1, eid == e0), (b, 2 * k, eid == e0 + n - 1)):
                if not here:
                    continue
                state = find(raw)
                cur = adj[state].get(lab)
                if cur is None or cur not in owner:
                    adj[state][lab] = eid
                elif cur != eid:
                    fold(state, lab, cur, eid)
                    return

        for i, w in enumerate(self.generators):
            if not w.syls:
                continue
            syls = [(2 * code[g] + (e > 0), abs(e)) for g, e in w.syls]
            last = syls[-1][0]  # the last letter closes the petal at the base
            if syls[-1][1] > 1:
                syls[-1] = (last, syls[-1][1] - 1)
            else:
                syls.pop()
            # Follow the petal along the graph while it can.  The letter fold
            # would merge each new state into the state it reaches, at offset
            # acc: the followed effective tags' inverse times the previous
            # offset.  Where it stops is a vertex, or offset j on chain rec,
            # where the next syllable (of another generator) cannot go on.
            at, rec, j, acc = 0, None, 0, IDENTITY
            q = 0
            cnt = syls[0][1] if syls else 0
            while q < len(syls) and rec is None:
                lab = syls[q][0]
                eid = adj[at].get(lab)
                if eid is None or eid not in owner:
                    break
                c = owner[eid]
                at_a, n = lab & 1, c[4]
                if cnt >= n:
                    acc = across(c, at_a).inverse() * acc
                    at = find(c[1] if at_a else c[0])
                    cnt -= n
                else:
                    acc = lead(c, at_a).inverse() * acc
                    rec, j, cnt = c, cnt if at_a else n - cnt, 0
                if not cnt:
                    q += 1
                    if q < len(syls):
                        cnt = syls[q][1]
            if rec is not None:
                at = split(rec, j)
            cur = node(at, acc) if acc.syls else at
            if q < len(syls):
                # the petal leaves the graph: its remaining letters up to the
                # last make one chain per syllable, with a vertex between two
                prev, first = cur, True
                for lab, cnt in [(syls[q][0], cnt)] + syls[q + 1:]:
                    k, z, e0 = lab >> 1, node(), top
                    top += cnt
                    if lab & 1:
                        chain(prev, z, k, e0, cnt, IDENTITY, lab ^ 1)
                        near, far = e0, e0 + cnt - 1
                    else:
                        chain(z, prev, k, e0, cnt, IDENTITY, lab ^ 1)
                        near, far = e0 + cnt - 1, e0
                    adj[find(prev) if first else prev][lab] = near
                    adj[z][lab ^ 1] = far
                    prev, first = z, False
                cur = prev
            tag = Word([(_witness_gen(i), 1)])
            if last & 1:
                chain(cur, 0, last >> 1, top, 1, tag, last ^ 1)
            else:
                chain(0, cur, last >> 1, top, 1, tag.inverse(), last ^ 1)
            queue.append(top)
            top += 1
            while queue:
                insert(queue.pop())

        # The folded graph: letters with a nontrivial effective tag become
        # chains of their own, the vertices are the classes, base first.
        vid = {find(0): 0}

        def vertex(x):
            return vid.setdefault(x, len(vid))

        edges = []  # [u, v, k, n, tag or None]
        for rec in {id(r): r for r in owner.values()}.values():
            a, b, k, _e0, n, tag, _back = rec
            u, v = vertex(find(a)), vertex(find(b))
            if n == 1:
                t = phi(a) * tag * phi(b).inverse()
                edges.append([u, v, k, 1, t if t.syls else None])
                continue
            head, tail = phi(a), phi(b).inverse()
            if head.syls:
                y = vertex(node())
                edges.append([u, y, k, 1, head])
                u, n = y, n - 1
            if tail.syls:
                y = u if n == 1 else vertex(node())
                edges.append([y, v, k, 1, tail])
                v, n = y, n - 1
            if n:
                edges.append([u, v, k, n, None])
        self._finish(alphabet, *_joined(edges, len(vid)))

    def _finish(self, alphabet: list, nv: int, edges: list):
        """The read tables of the graph with nv vertices and the given
        chains [u, v, k, n, tag]: per vertex and sign, the chain that
        leaves it with each generator."""
        self._alphabet = alphabet
        self._chains = edges
        plus = [{} for _ in range(nv)]   # vertex -> {g: (chain, n, far, tag)}
        minus = [{} for _ in range(nv)]
        for c, (u, v, k, n, tag) in enumerate(edges):
            g = alphabet[k]
            plus[u][g] = (c, n, v, tag)
            minus[v][g] = (c, n, u, None if tag is None else tag.inverse())
        self._plus, self._minus = plus, minus
        self.base = 0
        self.num_edges = sum(n for _u, _v, _k, n, _t in edges)  # undirected
        self.num_states = nv + self.num_edges - len(edges)

    @cached_property
    def _turns(self) -> list:
        """Per vertex, whether a syllable may end there: at the base, or at
        a vertex with edges of two generators.  Built on first use."""
        return [x == 0 or len(p.keys() | m.keys()) > 1
                for x, (p, m) in enumerate(zip(self._plus, self._minus))]

    # -- basic queries -------------------------------------------------------

    @property
    def delta(self) -> "_StateView":
        """Sized view of the states: len(aut.delta) is num_states.  It
        remains for the benchmark tracer's fold-state count."""
        return _StateView(self)

    @property
    def rank(self) -> int:
        """First Betti number: the rank of the subgroup."""
        return self.num_edges - self.num_states + 1

    def successors(self, at) -> list:
        """The (label, point) pairs one letter away from point at, in label
        order: alphabet order, -1 before +1."""
        if type(at) is not int:
            c, j = at
            u, v, k, n, _t = self._chains[c]
            g = self._alphabet[k]
            return [((g, -1), (c, j - 1) if j > 1 else u),
                    ((g, 1), (c, j + 1) if j + 1 < n else v)]
        steps = [((g, s), self._syllable(at, g, s)) for g in self._alphabet for s in (-1, 1)]
        return [(lab, t) for lab, (t, left) in steps if not left]

    def _walk(self, w: Word, tags: Optional[list] = None):
        """The point w leads to from the base, or None where an edge is
        missing.  tags, when given, collects the nontrivial tags of the
        edges taken, in order."""
        at, rest = self._read(w.syls, tags)
        return None if rest else at

    def coset(self, w: Word, tags: Optional[list] = None) -> tuple:
        """The right coset C w, as (point, rest): w is read from the base
        while the graph allows, point is where the read stops (a vertex or a
        pair (chain, offset)), and rest is the reduced word left unread, as
        syllables, a partly read syllable's leftover exponent included.

        The coset graph of C is the folded graph with a tree hung at each
        missing edge (Stallings, *Topology of finite graphs*, Invent. Math.
        1983), so (point, rest) names C w exactly: x y lies in C iff
        coset(x) == coset(y^-1), and w lies in C iff coset(w) == (base, ()).

        tags, when given, collects the nontrivial tags of the edges read, as
        _walk says.  A read that stops at point p after the prefix u of w
        collects tags that evaluate to u P(p)^-1, for a word P(p) fixed by p
        (see _build; only one-letter chains carry tags, so no read stops
        inside a tagged chain).  So when coset(x) == coset(y^-1), the tags of
        x's read times the inverse of those of y^-1's spell x y.
        """
        return self._read(w.syls, tags)

    def _read(self, syls: tuple, tags: Optional[list] = None) -> tuple:
        """Read syls from the base a syllable at a time while the graph
        allows: (the point reached, the syllables left unread).  A syllable
        that ends inside a chain stops the read, since a state there has
        edges of one generator only."""
        at = 0
        for i, (g, e) in enumerate(syls):
            if type(at) is not int:
                return at, syls[i:]
            at, left = self._syllable(at, g, e, tags)
            if left:
                return at, ((g, left),) + syls[i + 1:]
        return at, ()

    def _syllable(self, x: int, g: Generator, e: int, tags: Optional[list] = None):
        """Read g^e from vertex x a whole chain at a time: (the point
        reached, as _walk says, and the signed exponent left where an edge
        is missing, else 0)."""
        table, k = (self._plus, e) if e > 0 else (self._minus, -e)
        while True:
            end = table[x].get(g)
            if end is None:
                return x, k if e > 0 else -k
            c, n, y, tag = end
            if k < n:
                return (c, k if e > 0 else n - k), 0
            if y == x:
                # a loop: go round it k // n times at once
                m, k = divmod(k, n)
                if tags is not None and tag is not None:
                    tags.append(tag ** m)
                if not k:
                    return x, 0
                continue
            if tags is not None and tag is not None:
                tags.append(tag)
            x = y
            k -= n
            if not k:
                return x, 0

    def contains(self, w: Word) -> bool:
        # the base is vertex 0; a chain point or None is not 0
        return self._walk(w) == 0

    # -- canonical form (for isomorphism/confluence checks) ------------------

    def canonical_form(self):
        """BFS-renumbered transition table; equal iff automata are isomorphic.

        The search runs on points and numbers each point when it first
        reaches it.  A row lists a point's labels in (name, sign) order: a
        Generator compares as its name, and a row holds each label once, so
        its sort never compares points."""
        order = {self.base: 0}
        queue, rows = [self.base], []
        for at in queue:
            row = sorted(self.successors(at))
            rows.append(row)
            for _lab, t in row:
                if t not in order:
                    order[t] = len(order)
                    queue.append(t)
        return tuple([tuple([(str(g), s, order[t]) for (g, s), t in row]) for row in rows])

    # -- expression over the original generators -----------------------------

    def express(self, w: Word) -> Word:
        """A word over witness generators g[1]..g[k] evaluating to w.

        Raises NotMemberError when w is not in the subgroup.  The
        expression is the concatenation of the edge tags along the
        accepting path; it is re-evaluated through the generator images
        before being returned, so an internal bookkeeping error can only
        surface loudly, never as a wrong answer.
        """
        out = self.try_express(w)
        if out is None:
            raise NotMemberError(f"not a member: {w}")
        return out

    def try_express(self, w: Word) -> Optional[Word]:
        """express(w), or None when w is not in the subgroup: one read
        decides membership and collects the tags."""
        tags = []
        if self._walk(w, tags) != 0:
            return None
        out = self._tag_word(tags)
        if self.evaluate(out) != w:
            raise InternalInvariantError("expression failed evaluation check")
        return out

    @staticmethod
    def _tag_word(tags: list) -> Word:
        """The witness word spelled by the tags a read collected, in order."""
        return _concat(tag.syls for tag in tags)

    def evaluate(self, expr: Word) -> Word:
        """Evaluate a witness-alphabet word through the generator images."""
        return substitute(expr, self._witness_image)

    def _witness_image(self, g: Generator) -> Word:
        if g.name != WITNESS_NAME or not 1 <= (g.index or 0) <= len(self.generators):
            raise NotMemberError(f"not a witness symbol: {g}")
        return self.generators[g.index - 1]

    # -- syllable-exact prefix acceptance ------------------------------------

    def prefix_acceptable(self, p: Word, i: int, side: str = "left") -> bool:
        """Whether some member c with l(c) >= i has L_i(c) = p (or R_i(c) = p).

        p must be alternating with l(p) = i >= 1.  A completion must either
        continue on the opposite generator of p's last syllable or stop at
        the base with the final syllable exponent consumed exactly; this is
        what syllable-exact prefix equality requires.
        """
        w = p
        if i < 1 or w.syllable_len != i:
            raise PreconditionError(f"prefix length mismatch: l(p)={w.syllable_len}, i={i}")
        if side == "right":
            w = w.inverse()
        elif side != "left":
            raise PreconditionError(f"side must be left or right: {side!r}")
        return self._acceptable_run(w) == i

    def _acceptable_run(self, w: Word) -> int:
        """Largest i <= l(w) such that L_1(w), ..., L_i(w) are all acceptable.

        Acceptance is monotone in i: if L_{i+1}(w) is acceptable, the state
        after L_i(w) has an out-edge on w's (i+1)-st generator, which differs
        from the i-th.  So L_i(w) is acceptable exactly when i is at most
        this value, and one read that stops at the first failure decides
        every prefix of w.  A syllable that ends inside a chain fails, since
        a state there has edges of one generator only.
        """
        turns = self._turns
        at = 0
        for i, (g, e) in enumerate(w.syls):
            at, left = self._syllable(at, g, e)
            if left or type(at) is not int or not turns[at]:
                return i
        return len(w.syls)


def _joined(edges: list, nv: int) -> tuple:
    """The chains [u, v, k, n, tag] on nv vertices joined through every
    vertex other than the base 0 that has just one chain in and one out,
    untagged and of one generator; the vertex count and the joined chains,
    with the vertices that remain renumbered in order."""
    ends = [[] for _ in range(nv)]
    for c, (u, v, _k, _n, _t) in enumerate(edges):
        ends[u].append(c)
        ends[v].append(c)
    after = {}  # chain -> the chain it continues into
    for x in range(1, nv):
        if len(ends[x]) != 2:
            continue
        c, d = ends[x]
        if edges[c][0] == x:
            c, d = d, c
        if (c != d and edges[c][1] == x and edges[d][0] == x and edges[c][2] == edges[d][2]
                and edges[c][4] is None and edges[d][4] is None):
            after[c] = d
    if not after:
        return nv, edges
    inner = set(after.values())
    joined = []
    for c, (u, v, k, n, tag) in enumerate(edges):
        if c in inner:
            continue
        while c in after:
            c = after[c]
            n += edges[c][3]
            v = edges[c][1]
        joined.append([u, v, k, n, tag])
    new = [-1] * nv
    new[0] = 0
    kept = [0] + sorted({x for u, v, _k, _n, _t in joined for x in (u, v)} - {0})
    for i, x in enumerate(kept):
        new[x] = i
    for ch in joined:
        ch[0], ch[1] = new[ch[0]], new[ch[1]]
    return len(kept), joined


class _StateView:
    """The number of an automaton's states, as len()."""

    __slots__ = ("_aut",)

    def __init__(self, aut: SubgroupAutomaton):
        self._aut = aut

    def __len__(self) -> int:
        return self._aut.num_states


# -- syllable-exact prefix values ------------------------------------------

def lambda_value(aut: SubgroupAutomaton, w: Word) -> int:
    """Largest i <= l(w) with L_i(w) syllable-exactly extendable in the subgroup."""
    return aut._acceptable_run(w)


def rho_value(aut: SubgroupAutomaton, w: Word) -> int:
    """Right-side analogue of lambda_value: R_i(w) is L_i(w^-1) inverted."""
    return aut._acceptable_run(w.inverse())
