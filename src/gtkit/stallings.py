"""Folded subgroup automata for finitely generated subgroups of free groups.

A SubgroupAutomaton is the Stallings core graph of the subgroup generated by
a tuple of reduced words: a deterministic, involution-closed labeled graph
whose base-to-base loops spell exactly the subgroup's elements.  Besides
membership it supports rewriting members over the original generator tuple
(edges carry expression tags maintained through the folds, so a member's
expression is read off its accepting path) and deciding syllable-exact
prefix acceptance, i.e. membership of an alternating word p with l(p) = i
in the sets L_i(C) and R_i(C).
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from typing import Iterable, Optional

from .errors import InternalInvariantError, NotMemberError, PreconditionError
from .word import IDENTITY, Generator, Word, gen, substitute

WITNESS_NAME = "g"
# A segment lookup and jump cost about as much as stepping this many edges
# one at a time: shorter runs are not kept as segments, and a read with
# fewer edges left steps without a lookup.
_MIN_SEGMENT = 8


def _witness_gen(i: int) -> Generator:
    return gen(WITNESS_NAME, i + 1)


class SubgroupAutomaton:
    """Folded labeled graph deciding membership in <generators>."""

    def __init__(self, generators: Iterable[Word]):
        self.generators = tuple(generators)
        if not self.generators:
            raise PreconditionError("subgroup needs at least one generator")
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        """Fold the bouquet of generator petals, carrying expression tags.

        Each edge record (a, b, k, tag) realizes a --g_k--> b and stores an
        immutable word over the witness symbols; each state carries a
        witness-word offset in a weighted union-find.  The invariant is
        that evaluating the effective tag phi(a) tag phi(b)^-1 of an edge
        gives P(class a) g P(class b)^-1 for a fixed realization P of the
        state classes with P = 1 at the base class.  A fold of two edges
        with equal source and label sets the dying class's offset to the
        discrepancy of their effective tags, which preserves the invariant
        without touching any edge.  Expressions of members are then read
        off by concatenating effective tags along the accepting path.

        g_k is the k-th generator letter in sort_key order, and labels are
        coded as ints in that order, 2k for (g_k, -1) and 2k + 1 for
        (g_k, +1), so the adjacency maps of the fold hash ints, not
        generators.  Every empty offset and tag is the shared IDENTITY word.

        Once a petal leaves the graph built so far (its newest state was not
        folded away), no fold can happen before its last letter: the word is
        reduced and the queue is empty.  Those letters are added as one chain
        run of consecutive state and edge ids, with no adjacency dict or edge
        record; the run's syllables give each letter's label.  Such a state
        stays *fresh* until a fold step touches it (reads or writes its
        adjacency, merges it, or kills one of its edges), which builds the
        dict and edge records it would have had.  Fresh states are roots
        with exactly their two chain edges, both untagged.

        The folded automaton keeps one list per label, the successor of
        every state (-1 where missing), and per label a dict of the states
        whose outgoing edge carries a nontrivial tag.  Per label it also
        keeps the segments: runs of at least _MIN_SEGMENT fresh chain
        states p whose successor is p + 1 (or each p - 1), recorded as
        their rows are written.  Most of a folded C is such chains, and a
        read jumps along a segment in one step.
        """
        alphabet = sorted({g for w in self.generators for g, _ in w.syls},
                          key=Generator.sort_key)
        code = {g: k for k, g in enumerate(alphabet)}
        labels = [(g, s) for g in alphabet for s in (-1, 1)]
        parent = [0]
        offset = [IDENTITY]  # phi(x) = phi(parent[x]) * offset[x]; phi(root) = 1
        adj = [dict()]       # state -> {label code: edge id}; None while fresh
        edges = [None]       # edges[eid] = (a, b, k, tag); a --g_k(+1)--> b
        dead = bytearray(1)  # dead[eid] once the edge was folded away
        fresh = bytearray(1)  # fresh[x] while x is an untouched chain state
        runs = []            # (first state, first edge, syllable bounds, labels)
        run_starts = []      # first state of each run, for bisect

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

        def effective(eid):
            a, b, _k, tag = edges[eid]
            ra, pa = find_phi(a)
            rb, pb = find_phi(b)
            if pa.syls:
                tag = pa * tag
            if pb.syls:
                tag = tag * pb.inverse()
            return ra, rb, tag

        def chain_out(x):
            """The live adjacency of fresh state x, building its edge records.

            A run's states first, first + 1, ... are entered by consecutive
            letters of one petal, along edges eid, eid + 1, ...  Its last
            state is left by the petal's last letter, whose edge record
            exists by the time that state is touched.
            """
            first, eid, bounds, labs = runs[bisect_right(run_starts, x) - 1]
            eid += x - first
            out = {}
            for e, lab, far in ((eid, labs[bisect_right(bounds, x) - 1] ^ 1, x - 1),
                                (eid + 1, labs[bisect_right(bounds, x + 1) - 1], x + 1)):
                if edges[e] is None:
                    edges[e] = ((x, far, lab >> 1, IDENTITY) if lab & 1
                                else (far, x, lab >> 1, IDENTITY))
                if not dead[e]:
                    out[lab] = e
            return out

        def touch(x):
            fresh[x] = 0
            adj[x] = chain_out(x)

        queue = []

        def insert(eid):
            if dead[eid]:
                return
            a, b, k, _ = edges[eid]
            for raw, lab in ((a, 2 * k + 1), (b, 2 * k)):
                state = find(raw)
                if fresh[state]:
                    touch(state)
                cur = adj[state].get(lab)
                if cur is None or dead[cur]:
                    adj[state][lab] = eid
                    continue
                if cur == eid:
                    continue
                # fold: one edge survives, the other dies
                keep, gone = cur, eid
                kt, dt = _target(keep, lab), _target(gone, lab)
                if kt != dt and find(0) == dt:
                    # the base class must survive so that its realization
                    # stays trivial; swap the roles
                    keep, gone = gone, keep
                    kt, dt = dt, kt
                    adj[state][lab] = keep
                dead[gone] = 1
                for y in edges[gone][:2]:
                    if fresh[y]:
                        touch(y)
                if kt != dt:
                    for y in (kt, dt):
                        if fresh[y]:
                            touch(y)
                    delta = _discrepancy(keep, gone, lab)
                    parent[dt] = kt
                    offset[dt] = delta
                    moved, adj[dt] = adj[dt], {}
                    for meid in moved.values():
                        if not dead[meid]:
                            queue.append(meid)
                # the survivor may still owe a registration on its other
                # side (registration is idempotent), the dead edge stops
                queue.append(keep)
                return

        def _target(eid, lab):
            a, b, _k, _tag = edges[eid]
            return find(b if lab & 1 else a)

        def _discrepancy(keep, gone, lab):
            """D(keep)^-1 D(gone), where D(e) = phi(src) s phi(dst)^-1 is
            edge e's effective tag read along lab (s its tag, inverted when
            lab runs against the edge), multiplied out from these parts so
            that no offset is inverted twice."""
            ka, kb, _k, ktag = edges[keep]
            da, db, _k, dtag = edges[gone]
            if lab & 1:
                ktag = ktag.inverse()
            else:
                ka, kb, da, db = kb, ka, db, da
                dtag = dtag.inverse()
            out = find_phi(kb)[1] * ktag
            if ka != da:
                out = out * find_phi(ka)[1].inverse() * find_phi(da)[1]
            return out * dtag * find_phi(db)[1].inverse()

        def link(a, b, lab, tag):
            """Add a --lab--> b with tag (given from a) and fold."""
            k = lab >> 1
            eid = len(edges)
            edges.append((a, b, k, tag) if lab & 1 else (b, a, k, tag.inverse()))
            dead.append(0)
            queue.append(eid)
            while queue:
                insert(queue.pop())

        for i, w in enumerate(self.generators):
            if not w.syls:
                continue
            bounds, labs = [], []  # first letter and label code of each syllable
            last = 0
            for g, e in w.syls:
                bounds.append(last)
                labs.append(2 * code[g] + (e > 0))
                last += abs(e)
            bounds.append(last)
            last -= 1              # the last letter closes the petal at the base
            cur = p = q = 0        # raw state, letter, syllable
            while p < last:
                if p == bounds[q + 1]:
                    q += 1
                nxt = len(parent)
                parent.append(nxt)
                offset.append(IDENTITY)
                adj.append({})
                fresh.append(0)
                link(cur, nxt, labs[q], IDENTITY)
                cur = nxt  # raw id: tags are stated relative to raw states
                p += 1
                if parent[nxt] == nxt and p < last:
                    # the petal has left the graph at nxt: letters p..last-1
                    # make the fresh states nxt + 1..nxt + m of a run from nxt
                    m = last - p
                    runs.append((nxt, len(edges) - 1,
                                 [b + nxt + 1 - p for b in bounds[q:]], labs[q:]))
                    run_starts.append(nxt)
                    parent.extend(range(nxt + 1, nxt + 1 + m))
                    offset.extend([IDENTITY] * m)
                    adj.extend([None] * m)
                    fresh.extend(b"\x01" * m)
                    edges.extend([None] * m)
                    dead.extend(bytes(m))
                    touch(nxt)  # registers the run's first edge at nxt
                    cur = nxt + m
                    p = last
            link(cur, 0, labs[-1], Word([(_witness_gen(i), 1)]))

        # Number the classes depth-first from the base, taking each state's
        # live edges in label-code order, and fill the per-label successor
        # rows (-1 where missing), tag marks (nontrivial tags only) and
        # segments straight from the fold's adjacency.  Tags are re-read
        # through the union-find only for edges with a merged endpoint.
        size = len(parent)
        rows = [[-1] * size for _ in labels]
        marks = [{} for _ in labels]
        segs = [[] for _ in labels]  # (first, end, step): row[p] == p + step
        order = [-1] * size

        def fill(x0, x1):
            """Rows of fresh states x0..x1-1 whose fresh neighbours are
            numbered and whose own numbers run consecutively (up or down in
            x): one slice per syllable and direction, copied from order.
            Each slice is also recorded as a segment of its label, less an
            end entry that leads to a neighbour numbered out of sequence."""
            if x0 >= x1:
                return
            bounds, labs = runs[bisect_right(run_starts, x0) - 1][2:]
            down = order[x0] > order[x1 - 1]
            for j, lab in enumerate(labs):
                # in-edges of states bounds[j].., out-edges of the states before
                for at, lo, d in ((lab ^ 1, bounds[j], -1), (lab, bounds[j] - 1, 1)):
                    a = max(lo, x0)
                    b = min(lo + bounds[j + 1] - bounds[j], x1)
                    if a < b:
                        vals = order[a + d:b + d]
                        if down:
                            vals.reverse()
                            a = b - 1
                            d = -d
                        p, q = order[a], order[a] + len(vals)
                        rows[at][p:q] = vals
                        if vals[0] != p + d:
                            p += 1
                        if vals[-1] != q - 1 + d:
                            q -= 1
                        if p < q:
                            segs[at].append((p, q, d))

        base = find(0)
        order[base] = 0
        n = 1
        stack = [base]
        while stack:
            s = stack.pop()
            i = order[s]
            if fresh[s]:
                if fresh[s - 1] and fresh[s + 1]:
                    # Inside a chain: the loop below would number the rest
                    # of it one state after another up to a numbered state,
                    # or up to the state before a touched one, which it
                    # would push.  Do that by slices.
                    if order[s + 1] < 0:
                        end = y = fresh.find(0, s + 1)
                        while order[y - 1] >= 0:
                            y -= 1
                        order[s + 1:y] = range(n, n + y - s - 1)
                        n += y - s - 1
                        if y == end:
                            y -= 1
                            stack.append(y)
                        fill(s + 1, y)
                    elif order[s - 1] < 0:
                        end = y = fresh.rfind(0, 0, s)
                        while order[y + 1] >= 0:
                            y += 1
                        order[y + 1:s] = range(n + s - y - 2, n - 1, -1)
                        n += s - y - 1
                        if y == end:
                            y += 1
                            stack.append(y)
                        fill(y + 1, s)
                    fill(s, s + 1)
                    continue
                out = chain_out(s)
            else:
                out = adj[s]
            for lab in sorted(out):
                eid = out[lab]
                if dead[eid]:
                    continue
                a, b, _k, tag = edges[eid]
                t = b if lab & 1 else a
                if parent[t] != t:
                    t = find(t)
                j = order[t]
                if j < 0:
                    j = order[t] = n
                    n += 1
                    stack.append(t)
                rows[lab][i] = j
                if lab & 1:
                    if parent[a] != a or parent[b] != b:
                        tag = effective(eid)[2]
                    if tag.syls:
                        marks[lab][i] = tag
                        marks[lab - 1][j] = tag.inverse()
        for row in rows:
            del row[n:]
        self.base = 0
        self.num_states = n
        self._rows = dict(zip(labels, rows))
        self._marks = dict(zip(labels, marks))
        # per label, what a read takes: (row, marks, starts, ends, steps)
        self._reads = {lab: (row, mark) + _segment_lists(seg)
                       for lab, row, mark, seg in zip(labels, rows, marks, segs)}

    # -- basic queries -------------------------------------------------------

    @property
    def delta(self) -> "_StateView":
        """Read-only view: delta[q] is dict(successors(q)).  Only perfbench's
        tracer reads it, for len(aut.delta)."""
        return _StateView(self)

    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return sum(self.num_states - row.count(-1) for row in self._rows.values()) // 2

    @property
    def rank(self) -> int:
        """First Betti number: the rank of the subgroup."""
        return self.num_edges - self.num_states + 1

    def successors(self, state: int) -> list:
        """The (label, successor) pairs leaving a state, in label order."""
        return [(lab, row[state]) for lab, row in self._rows.items() if row[state] >= 0]

    def step(self, state: int, g: Generator, sign: int) -> Optional[int]:
        row = self._rows.get((g, sign))
        if row is None or row[state] < 0:
            return None
        return row[state]

    def trace(self, w: Word) -> Optional[int]:
        """Read w from the base; None if some transition is missing."""
        cur = self._walk(w)
        return None if cur < 0 else cur

    def _walk(self, w: Word, tags: Optional[list] = None) -> int:
        """The state w leads to from the base, or -1 where an edge is
        missing; tags, when given, collects the nontrivial tags of the
        edges taken, in order."""
        cur = self.base
        reads = self._reads
        for g, e in w.syls:
            read = reads.get((g, 1) if e > 0 else (g, -1))
            if read is None:
                return -1
            cur = _read(read, cur, abs(e), tags)
            if cur < 0:
                return -1
        return cur

    def contains(self, w: Word) -> bool:
        return self.trace(w) == self.base

    # -- canonical form (for isomorphism/confluence checks) ------------------

    def canonical_form(self):
        """BFS-renumbered transition table; equal iff automata are isomorphic."""
        rows = [(str(g), sign, row) for (g, sign), row in self._rows.items()]
        order = {self.base: 0}
        queue = [self.base]
        i = 0
        while i < len(queue):
            s = queue[i]
            i += 1
            for _name, _sign, row in rows:
                t = row[s]
                if t >= 0 and t not in order:
                    order[t] = len(order)
                    queue.append(t)
        return tuple(
            tuple(sorted((name, sign, order[row[s]])
                         for name, sign, row in rows if row[s] >= 0))
            for s in queue)

    def to_json(self) -> dict:
        edges = []
        for (g, sign), row in self._rows.items():
            if sign > 0:
                name = str(g)
                edges.extend([s, name, t] for s, t in enumerate(row) if t >= 0)
        return {"states": self.num_states, "base": self.base, "edges": sorted(edges)}

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
        if self._walk(w, tags) != self.base:
            return None
        out = Word([s for tag in tags for s in tag.syls])
        if self.evaluate(out) != w:
            raise InternalInvariantError("expression failed evaluation check")
        return out

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
        this value, and one trace that stops at the first failure decides
        every prefix of w.
        """
        rows = self._rows
        reads = self._reads
        cur = self.base
        for i, (g, e) in enumerate(w.syls):
            read = reads.get((g, 1) if e > 0 else (g, -1))
            if read is None:
                return i
            cur = _read(read, cur, abs(e))
            if cur < 0:
                return i
            if cur != self.base and not any(
                    r[cur] >= 0 for (h, _s), r in rows.items() if h != g):
                return i
        return len(w.syls)


def _read(read: tuple, cur: int, k: int, tags: Optional[list] = None) -> int:
    """The state k >= 1 edges after cur along a label's read record
    (row, marks, starts, ends, steps), or -1 where an edge is missing.

    Edges are taken one at a time, except that with at least _MIN_SEGMENT
    of them left a state inside one of the label's segments jumps to
    cur +- j for the j edges that stay in it.  After a lookup that lands
    between two segments there is no other lookup until the read leaves
    that gap.  tags, when given, collects the nontrivial tags of the edges
    taken, in order; segments hold untagged edges only.
    """
    row, marks, starts, ends, steps = read
    lo = hi = 0
    while k:
        if k >= _MIN_SEGMENT and not lo <= cur < hi:
            i = bisect_right(starts, cur) - 1
            if cur < ends[i]:
                if steps[i] > 0:
                    j = ends[i] - cur
                    if j >= k:
                        return cur + k
                    cur += j
                else:
                    j = cur - starts[i] + 1
                    if j >= k:
                        return cur - k
                    cur -= j
                k -= j
                continue
            lo, hi = ends[i], starts[i + 1]
        if tags is not None and cur in marks:
            tags.append(marks[cur])
        cur = row[cur]
        if cur < 0:
            return -1
        k -= 1
    return cur


def _segment_lists(segs: list) -> tuple:
    """A label's segments of at least _MIN_SEGMENT states as sorted starts,
    ends and steps lists.  An empty segment (-1, 0) comes first and a start
    sys.maxsize last, so that every state lies in a segment or between two."""
    segs = sorted(s for s in segs if s[1] - s[0] >= _MIN_SEGMENT)
    return ([-1] + [p for p, _q, _d in segs] + [sys.maxsize],
            [0] + [q for _p, q, _d in segs],
            [0] + [d for _p, _q, d in segs])


class _StateView:
    """Per-state successor dicts computed on access from an automaton's rows."""

    __slots__ = ("_aut",)

    def __init__(self, aut: SubgroupAutomaton):
        self._aut = aut

    def __len__(self) -> int:
        return self._aut.num_states

    def __getitem__(self, state: int) -> dict:
        return dict(self._aut.successors(range(self._aut.num_states)[state]))


# -- syllable-exact prefix values ------------------------------------------

def lambda_value(aut: SubgroupAutomaton, w: Word) -> int:
    """Largest i <= l(w) with L_i(w) syllable-exactly extendable in the subgroup."""
    return aut._acceptable_run(w)


def rho_value(aut: SubgroupAutomaton, w: Word) -> int:
    """Right-side analogue of lambda_value: R_i(w) is L_i(w^-1) inverted."""
    return aut._acceptable_run(w.inverse())
