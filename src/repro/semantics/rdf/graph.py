"""Indexed in-memory RDF graph, dictionary-encoded to integer ids.

Terms are interned once at the mutation boundary into a per-graph
:class:`~repro.semantics.rdf.dictionary.TermDictionary` (term -> dense int
id, append-only), and the three permutation indexes (SPO, POS, OSP) store
``(int, int, int)`` tuples: every index probe, join step and cardinality
lookup is integer hashing instead of structural term hashing.  Decoding
back to :class:`~repro.semantics.rdf.term.Term` objects happens lazily and
only at the boundaries — iteration, SPARQL projection, serialisation and
change-listener drains.

Index layout: each permutation is ``Dict[int, Dict[int, bucket]]`` where a
*bucket* is either a bare ``int`` (the overwhelmingly common single-entry
case — one object per ``(s, p)``, one predicate per ``(o, s)``) or a
``Set[int]`` once a second entry arrives.  Collapsing singleton buckets
avoids a ~200-byte ``set`` allocation per triple per permutation, which is
where the bulk of the per-triple memory went in the object-keyed layout.

Mutations are observable: a consumer that needs to react to graph growth
(the incremental reasoner, most importantly) registers a
:class:`ChangeTracker` via :meth:`Graph.track_changes` and periodically
drains it for the triples added — and whether anything was retracted —
since the last drain.  Tracker journals hold *encoded* triples (decode is
deferred until someone reads :attr:`GraphDelta.added`, and id-consumers
read :attr:`GraphDelta.added_ids` without decoding at all); the dictionary
is append-only, so journalled ids stay valid across later mutations.
Trackers are held by weak reference, so dropping the consumer drops its
tracker without explicit deregistration.

The graph also maintains cheap cardinality statistics (triples per
predicate, distinct subjects per predicate) alongside the indexes, so the
SPARQL query planner can estimate the result size of any triple pattern in
O(1)–O(small dict) without enumerating matches — see
:meth:`Graph.pattern_cardinality` and the ``distinct_*_count`` accessors.
Empty index buckets are pruned on removal so the statistics stay exact
under churn.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.semantics.rdf.dictionary import TermDictionary, TripleIds
from repro.semantics.rdf.namespace import NamespaceManager, RDF
from repro.semantics.rdf.term import IRI, Literal, Term, Variable, as_term
from repro.semantics.rdf.triple import Triple

TriplePattern = Tuple[Optional[Term], Optional[Term], Optional[Term]]
#: An encoded pattern: ``None`` is a wildcard, an int a ground term id.
IdPattern = Tuple[Optional[int], Optional[int], Optional[int]]

#: A bucket is one id (singleton) or a set of ids (two or more entries).
Bucket = Union[int, Set[int]]
Index = Dict[int, Dict[int, Bucket]]


# --------------------------------------------------------------------- #
# adaptive buckets (int for singletons, set once a second entry arrives)
# --------------------------------------------------------------------- #

def _bucket_add(inner: Dict[int, Bucket], key: int, value: int) -> bool:
    """Add ``value`` under ``key``; returns ``True`` when it was new."""
    current = inner.get(key)
    if current is None:
        inner[key] = value
        return True
    if current.__class__ is int:
        if current == value:
            return False
        inner[key] = {current, value}
        return True
    if value in current:
        return False
    current.add(value)
    return True


def _bucket_discard(inner: Dict[int, Bucket], key: int, value: int) -> bool:
    """Remove ``value`` from ``key``'s bucket, pruning/collapsing it."""
    current = inner.get(key)
    if current is None:
        return False
    if current.__class__ is int:
        if current != value:
            return False
        del inner[key]
        return True
    if value not in current:
        return False
    current.remove(value)
    if len(current) == 1:
        inner[key] = next(iter(current))
    return True


def _bucket_contains(bucket: Optional[Bucket], value: int) -> bool:
    if bucket is None:
        return False
    if bucket.__class__ is int:
        return bucket == value
    return value in bucket


def _bucket_iter(bucket: Bucket) -> Iterator[int]:
    if bucket.__class__ is int:
        yield bucket
    else:
        yield from bucket


def _bucket_len(bucket: Optional[Bucket]) -> int:
    if bucket is None:
        return 0
    if bucket.__class__ is int:
        return 1
    return len(bucket)


class GraphDelta:
    """The mutations a :class:`ChangeTracker` observed between two drains.

    ``added_ids`` lists the encoded triples inserted (in insertion order,
    without duplicates — re-adding a present triple is not a mutation);
    :attr:`added` decodes them lazily on first access.  ``retracted`` is
    ``True`` when any triple was removed or the graph was cleared.
    ``removed_ids`` itemises those removals when the tracker could afford
    to journal them: ``None`` means the retraction is *un-itemised* (the
    graph was cleared, or the journal overflowed) and the consumer cannot
    know which triples left.  ``overflowed`` is ``True`` when the
    tracker's buffer exceeded :attr:`ChangeTracker.max_buffered` and the
    backlog was dropped — consumers must fall back to a full
    recomputation.

    Coarse consumers (the reasoner) keep keying off :attr:`needs_full`,
    which stays ``True`` on *any* retraction; finer consumers (standing
    views) inspect :attr:`removed_ids` to decide whether the removals
    actually intersect the patterns they maintain.
    """

    __slots__ = (
        "added_ids",
        "removed_ids",
        "retracted",
        "overflowed",
        "_dictionary",
        "_decoded",
        "_decoded_removed",
    )

    def __init__(
        self,
        added_ids: Optional[List[TripleIds]] = None,
        retracted: bool = False,
        overflowed: bool = False,
        dictionary: Optional[TermDictionary] = None,
        removed_ids: Optional[List[TripleIds]] = None,
    ):
        self.added_ids: List[TripleIds] = added_ids if added_ids is not None else []
        # None = un-itemised retraction; [] = no removals happened
        self.removed_ids: Optional[List[TripleIds]] = (
            removed_ids if (removed_ids is not None or retracted) else []
        )
        self.retracted = retracted
        self.overflowed = overflowed
        self._dictionary = dictionary
        self._decoded: Optional[List[Triple]] = None
        self._decoded_removed: Optional[List[Triple]] = None

    @property
    def added(self) -> List[Triple]:
        """The added triples, decoded (and memoised) on first access."""
        if self._decoded is None:
            if self._dictionary is None:
                self._decoded = []
            else:
                self._decoded = self._dictionary.decode_triples(self.added_ids)
        return self._decoded

    @property
    def removed(self) -> List[Triple]:
        """The removed triples, decoded lazily; empty when un-itemised."""
        if self._decoded_removed is None:
            if self._dictionary is None or not self.removed_ids:
                self._decoded_removed = []
            else:
                self._decoded_removed = self._dictionary.decode_triples(self.removed_ids)
        return self._decoded_removed

    @property
    def removals_itemised(self) -> bool:
        """Whether every retraction in this delta is listed in ``removed_ids``."""
        return self.removed_ids is not None

    def __bool__(self) -> bool:
        return bool(self.added_ids) or self.retracted or self.overflowed

    @property
    def needs_full(self) -> bool:
        """Whether a coarse incremental consumer must recompute from scratch."""
        return self.retracted or self.overflowed

    def __repr__(self) -> str:
        removed = "?" if self.removed_ids is None else len(self.removed_ids)
        return (
            f"GraphDelta(added={len(self.added_ids)}, removed={removed}, "
            f"retracted={self.retracted}, overflowed={self.overflowed})"
        )


class ChangeTracker:
    """Accumulates one consumer's view of graph mutations.

    Obtained from :meth:`Graph.track_changes`; the graph only keeps a weak
    reference, so the tracker lives exactly as long as its consumer.  The
    journal buffers *encoded* triples — appending an id tuple per add keeps
    the per-mutation cost flat, and the dictionary's append-only guarantee
    makes deferred decoding safe.  A consumer that never drains does not
    hoard memory forever: once more than :attr:`max_buffered` adds pile up,
    the buffer collapses into an ``overflowed`` flag (the consumer then
    recomputes from scratch, which needs no backlog).
    """

    __slots__ = (
        "_added",
        "_removed",
        "_retracted",
        "_overflowed",
        "_dictionary",
        "__weakref__",
    )

    #: Buffered-mutations bound before the backlog collapses into ``overflowed``.
    max_buffered = 250_000

    def __init__(self, dictionary: Optional[TermDictionary] = None) -> None:
        self._added: List[TripleIds] = []
        # None = a clear (or overflow) made the removal set un-itemisable
        self._removed: Optional[List[TripleIds]] = []
        self._retracted = False
        self._overflowed = False
        self._dictionary = dictionary

    @property
    def dirty(self) -> bool:
        """Whether any mutation happened since the last :meth:`drain`."""
        return self._retracted or self._overflowed or bool(self._added)

    @property
    def retracted(self) -> bool:
        """Whether a removal / clear happened since the last drain."""
        return self._retracted

    def record_add(self, triple_ids: TripleIds) -> None:
        """Buffer one added (encoded) triple, collapsing past the bound."""
        if self._overflowed:
            return
        self._added.append(triple_ids)
        if self._buffered() > self.max_buffered:
            self._collapse()

    def record_remove(self, triple_ids: TripleIds) -> None:
        """Buffer one removed (encoded) triple, collapsing past the bound."""
        self._retracted = True
        if self._overflowed or self._removed is None:
            return
        self._removed.append(triple_ids)
        if self._buffered() > self.max_buffered:
            self._collapse()

    def record_retract_unitemised(self) -> None:
        """Note a retraction whose victims cannot be listed (a clear)."""
        self._retracted = True
        self._removed = None

    def _buffered(self) -> int:
        return len(self._added) + (len(self._removed) if self._removed else 0)

    def _collapse(self) -> None:
        self._added = []
        self._removed = None if self._retracted else []
        self._overflowed = True

    def drain(self) -> GraphDelta:
        """Return and reset the accumulated delta."""
        delta = GraphDelta(
            self._added,
            self._retracted,
            self._overflowed,
            self._dictionary,
            removed_ids=self._removed,
        )
        self._added = []
        self._removed = []
        self._retracted = False
        self._overflowed = False
        return delta

    def requeue(self, delta: GraphDelta) -> None:
        """Put a drained delta back in front of the buffer.

        Used by consumers whose processing of the delta failed midway, so
        the next drain sees the unconsumed mutations again.
        """
        if delta.added_ids and not self._overflowed:
            self._added = delta.added_ids + self._added
        if delta.retracted:
            if delta.removed_ids is None:
                self._removed = None
            elif self._removed is not None:
                self._removed = delta.removed_ids + self._removed
            self._retracted = True
        self._overflowed = self._overflowed or delta.overflowed
        if self._overflowed:
            self._collapse()
        elif self._buffered() > self.max_buffered:
            self._collapse()


class Graph:
    """A set of RDF triples with pattern-matching access.

    Parameters
    ----------
    identifier:
        Optional IRI naming the graph (useful when several graphs are
        managed together, e.g. one per sensor source).
    namespaces:
        Optional namespace manager; a fresh one with the core W3C prefixes
        is created when omitted.
    dictionary:
        Optional term dictionary to *share* with related graphs.  Shared
        dictionaries make ids directly comparable across graphs, which the
        set operations (:meth:`copy`, :meth:`union`, ...) exploit to move
        triples without a decode/re-encode round trip.  The dictionary is
        append-only, so sharing is safe: a graph never renumbers another
        graph's terms.
    """

    def __init__(
        self,
        identifier: Optional[IRI] = None,
        namespaces: Optional[NamespaceManager] = None,
        dictionary: Optional[TermDictionary] = None,
    ):
        self.identifier = identifier
        self.namespaces = namespaces or NamespaceManager()
        self._dict = dictionary if dictionary is not None else TermDictionary()
        self._spo: Index = {}
        self._pos: Index = {}
        self._osp: Index = {}
        self._size = 0
        self._version = 0
        self._trackers: List["weakref.ref[ChangeTracker]"] = []
        # synchronous mutation journals (WAL sinks) — unlike trackers these
        # are strong references and observe ops in exact order, because a
        # write-ahead log must not miss or reorder a single mutation
        self._journals: List[object] = []
        # cardinality statistics maintained incrementally for the planner,
        # keyed by predicate id
        self._pred_counts: Dict[int, int] = {}
        self._pred_subjects: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # dictionary / encoded access
    # ------------------------------------------------------------------ #

    @property
    def dictionary(self) -> TermDictionary:
        """The graph's term dictionary (term <-> id, append-only)."""
        return self._dict

    def encode_pattern(self, pattern: TriplePattern):
        """Encode a term pattern to an :data:`IdPattern`.

        ``None`` / :class:`~repro.semantics.rdf.term.Variable` positions
        become wildcards (``None``); ground terms are looked up *without*
        interning.  Returns ``None`` when a ground term is unknown to the
        dictionary — such a pattern cannot match any stored triple.
        """
        lookup = self._dict.lookup
        ids: List[Optional[int]] = []
        for term in pattern:
            if term is None or isinstance(term, Variable):
                ids.append(None)
                continue
            term_id = lookup(term)
            if term_id is None:
                return None
            ids.append(term_id)
        return (ids[0], ids[1], ids[2])

    def triples_ids(self, pattern: IdPattern = (None, None, None)) -> Iterator[TripleIds]:
        """Yield encoded triples matching an encoded pattern.

        This is the join entry point of the SPARQL evaluator and the rule
        engine: all index probing and candidate enumeration stays in id
        space; no term objects are touched.
        """
        s, p, o = pattern
        if s is not None:
            po = self._spo.get(s)
            if po is None:
                return
            if p is not None:
                bucket = po.get(p)
                if bucket is None:
                    return
                if o is not None:
                    if _bucket_contains(bucket, o):
                        yield (s, p, o)
                else:
                    for obj in _bucket_iter(bucket):
                        yield (s, p, obj)
            else:
                for pred, bucket in po.items():
                    if o is not None:
                        if _bucket_contains(bucket, o):
                            yield (s, pred, o)
                    else:
                        for obj in _bucket_iter(bucket):
                            yield (s, pred, obj)
        elif p is not None:
            os_ = self._pos.get(p)
            if os_ is None:
                return
            if o is not None:
                bucket = os_.get(o)
                if bucket is not None:
                    for subj in _bucket_iter(bucket):
                        yield (subj, p, o)
            else:
                for obj, bucket in os_.items():
                    for subj in _bucket_iter(bucket):
                        yield (subj, p, obj)
        elif o is not None:
            sp = self._osp.get(o)
            if sp is None:
                return
            for subj, bucket in sp.items():
                for pred in _bucket_iter(bucket):
                    yield (subj, pred, o)
        else:
            for subj, po in self._spo.items():
                for pred, bucket in po.items():
                    for obj in _bucket_iter(bucket):
                        yield (subj, pred, obj)

    def indexes(self) -> Tuple[Index, Index, Index]:
        """The ``(SPO, POS, OSP)`` permutation indexes, to be read only.

        Each is ``{id: {id: bucket}}`` as laid out in the module docstring
        (a bucket is a bare id or a set of ids).  The one caller is the
        compiled join kernel (:mod:`repro.semantics.sparql.kernel`), whose
        generated loops walk them exactly as :meth:`triples_ids` does but
        without a generator per pattern.  Mutating them corrupts the
        graph's statistics, journals and trackers; use :meth:`add` /
        :meth:`remove`.  As with :meth:`triples_ids`, a graph must not be
        mutated while a walk over its indexes is suspended.
        """
        return self._spo, self._pos, self._osp

    def contains_ids(self, triple_ids: TripleIds) -> bool:
        """Encoded membership test."""
        s, p, o = triple_ids
        po = self._spo.get(s)
        if po is None:
            return False
        return _bucket_contains(po.get(p), o)

    def add_encoded(self, s: int, p: int, o: int) -> bool:
        """Add a triple already encoded in *this graph's* dictionary.

        The caller vouches that ``(s, p, o)`` decodes to a valid ground
        triple (IRI/bnode subject, IRI predicate); the id-space fast paths
        (rule-head assertion, set operations over a shared dictionary) all
        obtain their ids from triples that passed the decoded constructor
        once.  Returns ``True`` when the triple was not present.
        """
        po = self._spo.get(s)
        if po is None:
            po = self._spo[s] = {}
        had_sp = p in po
        if not _bucket_add(po, p, o):
            return False
        if not had_sp:
            # first (s, p, *) triple: s becomes a distinct subject of p
            self._pred_subjects[p] = self._pred_subjects.get(p, 0) + 1
        os_ = self._pos.get(p)
        if os_ is None:
            os_ = self._pos[p] = {}
        _bucket_add(os_, o, s)
        sp = self._osp.get(o)
        if sp is None:
            sp = self._osp[o] = {}
        _bucket_add(sp, s, p)
        self._size += 1
        self._pred_counts[p] = self._pred_counts.get(p, 0) + 1
        self._version += 1
        if self._journals:
            for journal in self._journals:
                journal.log_add((s, p, o))
        if self._trackers:
            self._notify_add((s, p, o))
        return True

    # ------------------------------------------------------------------ #
    # change tracking
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumps on every add / remove / clear)."""
        return self._version

    def track_changes(self) -> ChangeTracker:
        """Register and return a fresh :class:`ChangeTracker`.

        The tracker sees every mutation from this point on.  It is held by
        weak reference: when the consumer drops it, the graph forgets it.
        """
        tracker = ChangeTracker(self._dict)
        self._trackers.append(weakref.ref(tracker, self._forget_tracker))
        return tracker

    def _forget_tracker(self, ref: "weakref.ref[ChangeTracker]") -> None:
        # garbage-collection callback: prune the dead ref eagerly so the
        # notify loops never iterate (or allocate for) dropped trackers
        try:
            self._trackers.remove(ref)
        except ValueError:
            pass

    def _live_trackers(self) -> List[ChangeTracker]:
        return [t for t in (ref() for ref in self._trackers) if t is not None]

    # ------------------------------------------------------------------ #
    # mutation journals (write-ahead logging)
    # ------------------------------------------------------------------ #

    def attach_journal(self, journal: object) -> None:
        """Register a synchronous mutation journal (a WAL sink).

        The journal's ``log_add(ids)`` / ``log_remove(ids)`` /
        ``log_clear()`` methods are invoked *inside* the mutating call, in
        mutation order, and only for mutations that actually changed the
        graph (re-adding a present triple or removing an absent one does
        not log).  Unlike change trackers, journals are strong references —
        detach explicitly via :meth:`detach_journal`.
        """
        if journal not in self._journals:
            self._journals.append(journal)

    def detach_journal(self, journal: object) -> None:
        """Deregister a journal registered via :meth:`attach_journal`."""
        try:
            self._journals.remove(journal)
        except ValueError:
            pass

    def _notify_add(self, triple_ids: TripleIds) -> None:
        # snapshot: a GC-triggered _forget_tracker may prune the list while
        # we iterate, which would make the index-based loop skip a tracker
        for ref in tuple(self._trackers):
            tracker = ref()
            if tracker is not None:
                tracker.record_add(triple_ids)

    def _notify_remove(self, triple_ids: TripleIds) -> None:
        for ref in tuple(self._trackers):
            tracker = ref()
            if tracker is not None:
                tracker.record_remove(triple_ids)

    def _notify_retract(self) -> None:
        for ref in tuple(self._trackers):
            tracker = ref()
            if tracker is not None:
                tracker.record_retract_unitemised()

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def add(self, triple: Union[Triple, Tuple[Term, Term, Term]]) -> bool:
        """Add a ground triple.  Returns ``True`` if it was not present."""
        if not isinstance(triple, Triple):
            s, p, o = triple
            triple = Triple(as_term(s), as_term(p), as_term(o))
        if not triple.is_ground():
            raise ValueError("cannot add a triple containing variables")
        encode = self._dict.encode
        return self.add_encoded(
            encode(triple.subject), encode(triple.predicate), encode(triple.object)
        )

    def add_all(self, triples: Iterable[Union[Triple, Tuple[Term, Term, Term]]]) -> int:
        """Add many triples; returns the number actually inserted.

        Encoding is batch-friendly by construction: the dictionary interns
        each distinct term once, so the repeated sensor IRIs, units and
        properties of an ingest batch cost one dict probe apiece after
        their first occurrence.
        """
        add = self.add
        return sum(1 for t in triples if add(t))

    def remove(self, triple: Union[Triple, Tuple[Term, Term, Term]]) -> bool:
        """Remove a ground triple.  Returns ``True`` if it was present."""
        if not isinstance(triple, Triple):
            s, p, o = triple
            triple = Triple(as_term(s), as_term(p), as_term(o))
        ids = self._dict.lookup_triple(triple)
        if ids is None:
            return False
        s, p, o = ids
        sp_map = self._spo.get(s)
        if sp_map is None or not _bucket_discard(sp_map, p, o):
            return False
        # prune emptied buckets in all three permutations so the
        # len()-based distinct-count statistics stay exact
        if p not in sp_map:
            if not sp_map:
                del self._spo[s]
            remaining = self._pred_subjects.get(p, 0) - 1
            if remaining > 0:
                self._pred_subjects[p] = remaining
            else:
                self._pred_subjects.pop(p, None)
        po_map = self._pos[p]
        _bucket_discard(po_map, o, s)
        if not po_map:
            del self._pos[p]
        os_map = self._osp[o]
        _bucket_discard(os_map, s, p)
        if not os_map:
            del self._osp[o]
        self._size -= 1
        count = self._pred_counts.get(p, 0) - 1
        if count > 0:
            self._pred_counts[p] = count
        else:
            self._pred_counts.pop(p, None)
        self._version += 1
        if self._journals:
            for journal in self._journals:
                journal.log_remove((s, p, o))
        if self._trackers:
            self._notify_remove((s, p, o))
        return True

    def remove_matching(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> int:
        """Remove every triple matching the (possibly wildcard) pattern."""
        victims = list(self.triples((subject, predicate, obj)))
        for t in victims:
            self.remove(t)
        return len(victims)

    def clear(self) -> None:
        """Remove every triple.

        The term dictionary is deliberately *kept*: ids are stable for the
        life of the graph, so encoded journals and shared-dictionary
        consumers survive a clear (they observe it as a retraction).  The
        same retention underpins write-ahead-log id stability — a WAL
        records ``clear`` as a single op and keeps referencing
        previously-defined ids afterwards, which is only sound because a
        clear never renumbers or reuses them.
        """
        had_triples = self._size > 0
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._pred_counts.clear()
        self._pred_subjects.clear()
        self._size = 0
        if had_triples:
            self._version += 1
            if self._journals:
                for journal in self._journals:
                    journal.log_clear()
            if self._trackers:
                self._notify_retract()

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Union[Triple, Tuple]) -> bool:
        if isinstance(triple, Triple):
            s, p, o = triple.subject, triple.predicate, triple.object
        else:
            s, p, o = triple
        lookup = self._dict.lookup
        s_id = lookup(s)
        if s_id is None:
            return False
        p_id = lookup(p)
        if p_id is None:
            return False
        o_id = lookup(o)
        if o_id is None:
            return False
        return self.contains_ids((s_id, p_id, o_id))

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def triples(
        self, pattern: TriplePattern = (None, None, None)
    ) -> Iterator[Triple]:
        """Yield triples matching ``pattern``; ``None`` is a wildcard.

        A :class:`~repro.semantics.rdf.term.Variable` in a position is
        treated as a wildcard too, so SPARQL basic-graph-pattern evaluation
        can pass patterns through unchanged.  Ground terms are resolved to
        ids once; candidates are enumerated in id space and decoded only as
        they are yielded.
        """
        ids = self.encode_pattern(pattern)
        if ids is None:
            return
        terms = self._dict.terms
        for s, p, o in self.triples_ids(ids):
            yield Triple(terms[s], terms[p], terms[o])

    def subjects(
        self, predicate: Optional[Term] = None, obj: Optional[Term] = None
    ) -> Iterator[Term]:
        """Distinct subjects of triples matching ``(?, predicate, obj)``."""
        ids = self.encode_pattern((None, predicate, obj))
        if ids is None:
            return
        terms = self._dict.terms
        seen: Set[int] = set()
        for s, _, _ in self.triples_ids(ids):
            if s not in seen:
                seen.add(s)
                yield terms[s]

    def objects(
        self, subject: Optional[Term] = None, predicate: Optional[Term] = None
    ) -> Iterator[Term]:
        """Distinct objects of triples matching ``(subject, predicate, ?)``."""
        ids = self.encode_pattern((subject, predicate, None))
        if ids is None:
            return
        terms = self._dict.terms
        seen: Set[int] = set()
        for _, _, o in self.triples_ids(ids):
            if o not in seen:
                seen.add(o)
                yield terms[o]

    def predicates(
        self, subject: Optional[Term] = None, obj: Optional[Term] = None
    ) -> Iterator[Term]:
        """Distinct predicates of triples matching ``(subject, ?, obj)``."""
        ids = self.encode_pattern((subject, None, obj))
        if ids is None:
            return
        terms = self._dict.terms
        seen: Set[int] = set()
        for _, p, _ in self.triples_ids(ids):
            if p not in seen:
                seen.add(p)
                yield terms[p]

    def value(
        self, subject: Optional[Term] = None, predicate: Optional[Term] = None,
        obj: Optional[Term] = None, default: Optional[Term] = None,
    ) -> Optional[Term]:
        """Return one term completing the pattern, or ``default``.

        Exactly one of the three positions must be ``None``; that position is
        the value returned.
        """
        holes = [subject is None, predicate is None, obj is None]
        if sum(holes) != 1:
            raise ValueError("value() requires exactly one unspecified position")
        for t in self.triples((subject, predicate, obj)):
            if subject is None:
                return t.subject
            if predicate is None:
                return t.predicate
            return t.object
        return default

    # ------------------------------------------------------------------ #
    # cardinality statistics (consumed by the SPARQL query planner)
    # ------------------------------------------------------------------ #

    def predicate_cardinality(self, predicate: Term) -> int:
        """Exact number of triples carrying ``predicate``."""
        p = self._dict.lookup(predicate)
        if p is None:
            return 0
        return self._pred_counts.get(p, 0)

    def distinct_subjects_count(self, predicate: Optional[Term] = None) -> int:
        """Distinct subjects of triples with ``predicate`` (or of any triple)."""
        if predicate is None:
            return len(self._spo)
        p = self._dict.lookup(predicate)
        if p is None:
            return 0
        return self._pred_subjects.get(p, 0)

    def distinct_objects_count(self, predicate: Optional[Term] = None) -> int:
        """Distinct objects of triples with ``predicate`` (or of any triple)."""
        if predicate is None:
            return len(self._osp)
        p = self._dict.lookup(predicate)
        if p is None:
            return 0
        return len(self._pos.get(p, ()))

    def distinct_predicates_count(self) -> int:
        """Number of distinct predicates in the graph."""
        return len(self._pos)

    def pattern_cardinality(self, pattern: TriplePattern) -> int:
        """Exact number of triples matching ``pattern``.

        ``None`` (or a :class:`~repro.semantics.rdf.term.Variable`) is a
        wildcard.  Answered from the permutation indexes and the maintained
        per-predicate counters without enumerating matches; the worst cases
        — one fixed subject or one fixed object — iterate a single small
        inner dictionary.
        """
        ids = self.encode_pattern(pattern)
        if ids is None:
            return 0
        return self.pattern_cardinality_ids(ids)

    def pattern_cardinality_ids(self, pattern: IdPattern) -> int:
        """Exact number of triples matching an encoded pattern."""
        s, p, o = pattern
        if s is not None:
            if p is not None:
                if o is not None:
                    return 1 if self.contains_ids((s, p, o)) else 0
                return _bucket_len(self._spo.get(s, {}).get(p))
            if o is not None:
                return _bucket_len(self._osp.get(o, {}).get(s))
            return sum(_bucket_len(b) for b in self._spo.get(s, {}).values())
        if p is not None:
            if o is not None:
                return _bucket_len(self._pos.get(p, {}).get(o))
            return self._pred_counts.get(p, 0)
        if o is not None:
            return sum(_bucket_len(b) for b in self._osp.get(o, {}).values())
        return self._size

    # ------------------------------------------------------------------ #
    # conveniences used heavily by the ontology layer
    # ------------------------------------------------------------------ #

    def add_type(self, individual: Term, cls: IRI) -> bool:
        """Assert ``individual rdf:type cls``."""
        return self.add(Triple(individual, RDF.type, cls))

    def types_of(self, individual: Term) -> Set[IRI]:
        """All asserted ``rdf:type`` values for ``individual``."""
        return {o for o in self.objects(individual, RDF.type) if isinstance(o, IRI)}

    def instances_of(self, cls: IRI) -> Set[Term]:
        """All subjects asserted to be of type ``cls``."""
        return set(self.subjects(RDF.type, cls))

    def literal_value(
        self, subject: Term, predicate: Term, default=None
    ):
        """The Python value of the first literal object for the pattern."""
        val = self.value(subject, predicate, None)
        if isinstance(val, Literal):
            return val.to_python()
        return default

    # ------------------------------------------------------------------ #
    # set operations
    # ------------------------------------------------------------------ #
    #
    # All derived graphs share this graph's dictionary, so triples move
    # between them as raw id tuples without decode/re-encode round trips.
    # Graphs with *different* dictionaries still interoperate through the
    # decoded term API.

    def union(self, other: "Graph") -> "Graph":
        """A new graph holding the triples of both graphs."""
        result = self.copy()
        if other._dict is result._dict:
            add_encoded = result.add_encoded
            for s, p, o in other.triples_ids():
                add_encoded(s, p, o)
        else:
            result.add_all(other)
        return result

    def intersection(self, other: "Graph") -> "Graph":
        """A new graph holding only the triples present in both graphs."""
        result = Graph(namespaces=self.namespaces.copy(), dictionary=self._dict)
        if other._dict is self._dict:
            contains = other.contains_ids
            add_encoded = result.add_encoded
            for ids in self.triples_ids():
                if contains(ids):
                    add_encoded(*ids)
        else:
            for t in self:
                if t in other:
                    result.add(t)
        return result

    def difference(self, other: "Graph") -> "Graph":
        """A new graph holding the triples of ``self`` absent from ``other``."""
        result = Graph(namespaces=self.namespaces.copy(), dictionary=self._dict)
        if other._dict is self._dict:
            contains = other.contains_ids
            add_encoded = result.add_encoded
            for ids in self.triples_ids():
                if not contains(ids):
                    add_encoded(*ids)
        else:
            for t in self:
                if t not in other:
                    result.add(t)
        return result

    def copy(self) -> "Graph":
        """An independent copy of this graph (sharing the term dictionary)."""
        result = Graph(
            identifier=self.identifier,
            namespaces=self.namespaces.copy(),
            dictionary=self._dict,
        )
        add_encoded = result.add_encoded
        for s, p, o in self.triples_ids():
            add_encoded(s, p, o)
        return result

    def add_from(self, other: "Graph") -> int:
        """Bulk-load every triple of ``other``; returns the number inserted.

        With a shared dictionary triples move as raw id tuples.  With
        *different* dictionaries (the sharded store replicating ontology
        axioms into per-shard id spaces) each distinct term of ``other`` is
        decoded once and re-encoded once through an id -> id memo, skipping
        per-triple ``Triple`` construction and groundness re-validation —
        the triples already passed them when ``other`` stored them.
        """
        added = 0
        add_encoded = self.add_encoded
        if other._dict is self._dict:
            for ids in other.triples_ids():
                if add_encoded(*ids):
                    added += 1
            return added
        memo: Dict[int, int] = {}
        other_terms = other._dict.terms
        encode = self._dict.encode
        for s, p, o in other.triples_ids():
            ns = memo.get(s)
            if ns is None:
                ns = memo[s] = encode(other_terms[s])
            np = memo.get(p)
            if np is None:
                np = memo[p] = encode(other_terms[p])
            no = memo.get(o)
            if no is None:
                no = memo[o] = encode(other_terms[o])
            if add_encoded(ns, np, no):
                added += 1
        return added

    def __iadd__(self, other: Iterable[Triple]) -> "Graph":
        if isinstance(other, Graph) and other._dict is self._dict:
            add_encoded = self.add_encoded
            for s, p, o in other.triples_ids():
                add_encoded(s, p, o)
        else:
            self.add_all(other)
        return self

    # ------------------------------------------------------------------ #
    # serialisation (delegates)
    # ------------------------------------------------------------------ #

    def serialize(self, format: str = "ntriples") -> str:
        """Serialise to ``ntriples`` or ``turtle``."""
        from repro.semantics.rdf.serializer import serialize_graph

        return serialize_graph(self, format=format)

    def parse(self, text: str, format: str = "ntriples") -> int:
        """Parse ``text`` into this graph; returns triples added."""
        from repro.semantics.rdf.parser import parse_into_graph

        return parse_into_graph(self, text, format=format)

    def __repr__(self) -> str:
        name = self.identifier.value if self.identifier else "anonymous"
        return f"<Graph {name} ({self._size} triples)>"
