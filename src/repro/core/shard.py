"""One partition of the ontology segment layer's state.

A :class:`Shard` is the unit both shard transports execute: a ``Graph``
with the :class:`~repro.core.annotation.SemanticAnnotator` that writes
into it, the :class:`~repro.semantics.reasoner.Reasoner` that closes it,
the standing views registered on it and — when the layer is durable — the
:class:`~repro.persistence.store.ShardPersistence` segment behind it,
which the shard itself attaches (fresh partition) or recovers (no
partition handed in) as it is built.

:class:`~repro.core.shard_backend.InlineShardBackend` holds N shards, a
:mod:`~repro.core.shard_worker` process holds one, and both execute an
operation through :meth:`Shard.run`.  Every method a backend runs has one
row in the op table (:data:`repro.core.shard_wire.OPS`), which is all
either transport needs to know about it — including its ``writes``
column, which :meth:`Shard.run` reads to commit the segment after the
method returns.  That is the one durability point, on either transport:
a write is durable (per the fsync policy) before its op answers, only
shards that were written are fsynced, and a commit that leaves the
segment ``snapshot_interval`` records deep rolls the next generation.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.annotation import SemanticAnnotator
from repro.core.mediator import CanonicalObservation
from repro.core.shard_wire import ALWAYS, ON_ENTAIL, OPS
from repro.persistence.store import ShardPersistence
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.term import Term
from repro.semantics.rdf.triple import Triple
from repro.semantics.reasoner import Reasoner
from repro.semantics.rules import InferenceTrace
from repro.semantics.sparql.bindings import Bindings
from repro.semantics.sparql.planner import (
    _FEDERATED_KEY_PREFIX,
    federated_partition_solutions,
    federated_variant,
    planner_for,
)
from repro.semantics.sparql.views import StandingView


class Shard:
    """Graph + annotator + reasoner + standing views of one partition.

    ``graph`` is the fresh partition (axiom base already replicated in),
    or ``None`` to recover it from ``persistence``.  The IK catalogue is
    materialised either way — before a fresh partition's generation-0
    snapshot, so it lands there and not in the WAL, and over a recovered
    one, where it journals nothing: the indicators use deterministic IRIs.
    Snapshots carry the standing views' materialized rows, so a restart
    can re-register them without re-materializing.
    """

    def __init__(
        self,
        graph: Optional[Graph],
        knowledge_base,
        persistence: Optional[ShardPersistence] = None,
    ):
        recover = graph is None
        if recover:
            graph = persistence.recover()
        knowledge_base.materialize(graph)
        self.persistence = persistence
        if persistence is not None:
            if not recover:
                persistence.attach(graph)
            persistence.view_source = self._export_views
        self.graph = graph
        # annotation indexes always arrive pre-assigned from the layer's
        # shared arrival-order counter, so this annotator's own counter is
        # never consumed
        self.annotator = SemanticAnnotator(graph, knowledge_base=knowledge_base)
        self.reasoner = Reasoner(graph)
        #: registration text -> StandingView
        self.views: Dict[str, StandingView] = {}

    def run(self, method: str, args: tuple):
        """Execute one op-table row: the method, then the row's commit rule.

        ``args`` is the full positional tuple, as the row's request codec
        decodes it.
        """
        result = getattr(self, method)(*args)
        writes = OPS[method].writes
        if self.persistence is not None and (
            writes == ALWAYS or (writes == ON_ENTAIL and args[1])
        ):
            self.persistence.commit()
        return result

    def _export_views(self) -> List[Tuple[str, str, dict]]:
        """Snapshot payload: every view's current rows (refreshed first)."""
        return [
            (view.name, text, view.export_rows())
            for text, view in self.views.items()
        ]

    # -- writes --------------------------------------------------------- #

    def ingest(self, pairs: Sequence[Tuple[CanonicalObservation, int]]) -> int:
        """Annotate ``(observation, index)`` pairs; returns the graph growth."""
        before = len(self.graph)
        self.annotator.annotate_batch(
            [observation for observation, _ in pairs],
            indexes=[index for _, index in pairs],
        )
        return len(self.graph) - before

    def replicate(self, triples: Iterable[Triple]) -> int:
        """Add replicated content (service descriptions, ontology deltas)."""
        return self.graph.add_all(triples)

    def retract(self, subject: Term) -> int:
        """Remove every triple about ``subject``."""
        return self.graph.remove_matching(subject=subject)

    def checkpoint(self) -> None:
        """Force a durable snapshot (no-op without a durable segment)."""
        if self.persistence is not None:
            self.persistence.commit()
            self.persistence.checkpoint()

    # -- reasoning and querying ----------------------------------------- #

    def reason(self) -> None:
        """Top the closure up over whatever changed since the last run."""
        self.reasoner.ensure_materialized()

    def materialize(self, full: bool = False) -> InferenceTrace:
        return self.reasoner.materialize(full=full)

    def query_ask(self, text: str, entail: bool = False) -> bool:
        if entail:
            self.reason()
        return planner_for(self.graph).query(self.graph, text).ask

    def query_full(self, text: str, entail: bool = False) -> Tuple[List, List[Bindings]]:
        """This partition's rows for a federated SELECT: full solutions, or
        distinct projections under the DISTINCT push-down (the planner's
        ``federated_variant`` decides)."""
        if entail:
            self.reason()
        return federated_partition_solutions(self.graph, text)

    # -- standing views -------------------------------------------------- #

    def register_view(
        self, text: str, name: Optional[str] = None, federated: bool = True
    ) -> StandingView:
        """Register (idempotently) this partition's view for ``text``.

        ``federated`` selects the cache key the federator will hit: SELECT
        views register the full-row
        :func:`~repro.semantics.sparql.planner.federated_variant` under the
        federated marker key, ASK views (and the view of a one-shard layer)
        register under the plain text.

        Rows stored in the recovered snapshot seed the view only while the
        partition is byte-for-byte the snapshot's state: nothing replayed
        from the WAL tail, nothing journalled since, and the stored query
        text matches the registration.  Anything else re-materializes.
        """
        view = self.views.get(text)
        if view is not None:
            return view
        seed = None
        persistence = self.persistence
        if (
            persistence is not None
            and persistence.wal is not None
            and persistence.wal.records == 0
        ):
            seed = persistence.view_seed(name if name is not None else text, text)
        planner = planner_for(self.graph)
        parsed = planner._parse(text)
        cache_text = text
        if federated and parsed.form != "ASK":
            parsed = federated_variant(parsed, standing=True)
            cache_text = _FEDERATED_KEY_PREFIX + text
        view = self.views[text] = planner.register_standing(
            self.graph, text, parsed=parsed, cache_text=cache_text, name=name, seed=seed
        )
        return view

    def refresh_views(self) -> None:
        """Fold pending graph deltas into every view (notifies subscribers)."""
        for view in self.views.values():
            view.refresh()

    def view_rows(self, text: str) -> Tuple[List, List[Bindings]]:
        view = self.views[text]
        return view._full_variables, view.rows()

    # -- observability --------------------------------------------------- #

    @property
    def generation(self) -> int:
        """The durable segment's snapshot generation (0 without one)."""
        return self.persistence.generation if self.persistence is not None else 0

    def stats(self) -> dict:
        """Size, durable-segment depth, planner and view counters."""
        wal = self.persistence.wal if self.persistence is not None else None
        return {
            "pid": os.getpid(),
            "triples": len(self.graph),
            "version": self.graph.version,
            "wal_records": wal.records if wal is not None else 0,
            "generation": self.generation,
            "planner": asdict(planner_for(self.graph).statistics),
            "views": [
                dict(view.stats(), text=text) for text, view in self.views.items()
            ],
        }

    def ping(self) -> dict:
        """Heartbeat: proves the shard's event loop is live, not just its process."""
        return {"pid": os.getpid(), "triples": len(self.graph)}

    def dump(self) -> Graph:
        """The whole partition — live here, a full copy across a pipe."""
        return self.graph

    def __repr__(self) -> str:
        return f"<Shard triples={len(self.graph)} views={len(self.views)}>"
