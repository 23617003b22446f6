"""Topic-based publish/subscribe message broker.

This is the message-oriented-middleware backbone: the physical layer
publishes raw observation messages, the ontology segment layer subscribes,
annotates and republishes semantic messages, and the CEP engine and the
dissemination channels subscribe downstream.  Topics use ``/``-separated
segments with MQTT-style wildcards (``+`` for one segment, ``#`` for the
rest), which is how the application abstraction layer exposes selective
subscriptions to applications.

Routing is indexed by a segment trie: every subscription pattern is
inserted segment-by-segment (literal children, a ``+`` branch, and a
``#`` bucket per node), so matching a published topic walks at most
O(topic depth) trie levels instead of scanning every subscription.
Retained messages live on the trie node of their (literal) topic path,
which makes retained replay for a late wildcard subscriber a walk of the
same trie.  Invalid patterns (a ``#`` that is not the last segment) are
rejected when ``subscribe`` is called, and cancelled subscriptions are
pruned from the trie immediately so churn does not leak memory.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.streams.messages import Message
from repro.streams.scheduler import SimulationScheduler

MessageHandler = Callable[[Message], None]

MULTI_WILDCARD = "#"
SINGLE_WILDCARD = "+"


def validate_pattern(pattern: str) -> List[str]:
    """Split a subscription pattern, rejecting a misplaced ``#``.

    Returns the pattern's segments so callers do not re-split.
    """
    parts = pattern.split("/")
    for index, part in enumerate(parts):
        if part == MULTI_WILDCARD and index != len(parts) - 1:
            raise ValueError("'#' wildcard must be the last topic segment")
    return parts


def topic_matches(pattern: str, topic: str) -> bool:
    """MQTT-style topic matching.

    ``+`` matches exactly one segment, ``#`` (which must be last) matches
    any remaining segments including none.
    """
    pattern_parts = pattern.split("/")
    topic_parts = topic.split("/")
    for index, part in enumerate(pattern_parts):
        if part == MULTI_WILDCARD:
            if index != len(pattern_parts) - 1:
                raise ValueError("'#' wildcard must be the last topic segment")
            return True
        if index >= len(topic_parts):
            return False
        if part == SINGLE_WILDCARD:
            continue
        if part != topic_parts[index]:
            return False
    return len(pattern_parts) == len(topic_parts)


@dataclass
class Subscription:
    """A registered subscriber: a topic pattern plus a handler."""

    subscription_id: int
    pattern: str
    handler: MessageHandler = field(repr=False)
    subscriber_name: str = "anonymous"
    delivered: int = 0
    active: bool = True
    #: Set by the owning broker so ``cancel`` prunes the routing trie.
    _detach: Optional[Callable[["Subscription"], None]] = field(
        default=None, repr=False, compare=False
    )
    #: True while the broker replays retained messages to this fresh
    #: subscription *outside* the lock; concurrent publishes park their
    #: messages in ``_backlog`` (under the lock) so per-subscription order
    #: stays retained-snapshot-then-publish-order without the replay's
    #: handler calls holding the broker lock.
    _replaying: bool = field(default=False, repr=False, compare=False)
    _backlog: List[Message] = field(default_factory=list, repr=False, compare=False)

    def cancel(self) -> None:
        """Stop receiving messages on this subscription."""
        self.active = False
        if self._detach is not None:
            detach, self._detach = self._detach, None
            detach(self)


class _TrieNode:
    """One segment level of the routing trie.

    ``children`` holds literal next-segment branches, ``plus`` the ``+``
    wildcard branch, ``hash_subscriptions`` the subscriptions whose pattern
    ends in ``#`` at this level, ``subscriptions`` the patterns that end
    exactly here, and ``retained`` the retained message of the literal
    topic path ending here.
    """

    __slots__ = ("children", "plus", "subscriptions", "hash_subscriptions", "retained")

    def __init__(self) -> None:
        self.children: Dict[str, _TrieNode] = {}
        self.plus: Optional[_TrieNode] = None
        self.subscriptions: List[Subscription] = []
        self.hash_subscriptions: List[Subscription] = []
        self.retained: Optional[Message] = None

    @property
    def prunable(self) -> bool:
        return (
            not self.children
            and self.plus is None
            and not self.subscriptions
            and not self.hash_subscriptions
            and self.retained is None
        )


class SubscriptionTrie:
    """Segment trie over subscription patterns and retained topics."""

    def __init__(self) -> None:
        self.root = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -------------------------------------------------------------- #
    # maintenance
    # -------------------------------------------------------------- #

    def insert(self, subscription: Subscription, parts: Optional[List[str]] = None) -> None:
        """Insert a subscription pattern.

        ``parts`` may carry the segments returned by a prior
        :func:`validate_pattern` call to avoid re-splitting.
        """
        if parts is None:
            parts = validate_pattern(subscription.pattern)
        node = self.root
        for part in parts[:-1]:
            node = self._descend(node, part)
        last = parts[-1]
        if last == MULTI_WILDCARD:
            node.hash_subscriptions.append(subscription)
        else:
            node = self._descend(node, last)
            node.subscriptions.append(subscription)
        self._size += 1

    def _descend(self, node: _TrieNode, part: str) -> _TrieNode:
        if part == SINGLE_WILDCARD:
            if node.plus is None:
                node.plus = _TrieNode()
            return node.plus
        child = node.children.get(part)
        if child is None:
            child = node.children[part] = _TrieNode()
        return child

    def remove(self, subscription: Subscription) -> bool:
        """Remove a subscription and prune now-empty trie branches."""
        parts = subscription.pattern.split("/")
        return self._remove(self.root, parts, 0, subscription)

    def _remove(
        self, node: _TrieNode, parts: List[str], index: int, subscription: Subscription
    ) -> bool:
        if index == len(parts) - 1 and parts[index] == MULTI_WILDCARD:
            if subscription not in node.hash_subscriptions:
                return False
            node.hash_subscriptions.remove(subscription)
            self._size -= 1
            return True
        if index == len(parts):
            if subscription not in node.subscriptions:
                return False
            node.subscriptions.remove(subscription)
            self._size -= 1
            return True
        part = parts[index]
        if part == SINGLE_WILDCARD:
            child = node.plus
        else:
            child = node.children.get(part)
        if child is None:
            return False
        removed = self._remove(child, parts, index + 1, subscription)
        if removed and child.prunable:
            if part == SINGLE_WILDCARD:
                node.plus = None
            else:
                del node.children[part]
        return removed

    # -------------------------------------------------------------- #
    # routing
    # -------------------------------------------------------------- #

    def match(self, topic: str) -> List[Subscription]:
        """All subscriptions whose pattern matches ``topic``."""
        recipients: List[Subscription] = []
        self._match(self.root, topic.split("/"), 0, recipients)
        return recipients

    def _match(
        self, node: _TrieNode, parts: List[str], index: int, out: List[Subscription]
    ) -> None:
        # a '#' at this level matches all remaining segments, including none
        out.extend(node.hash_subscriptions)
        if index == len(parts):
            out.extend(node.subscriptions)
            return
        child = node.children.get(parts[index])
        if child is not None:
            self._match(child, parts, index + 1, out)
        if node.plus is not None:
            self._match(node.plus, parts, index + 1, out)

    # -------------------------------------------------------------- #
    # retained messages
    # -------------------------------------------------------------- #

    def set_retained(self, topic: str, message: Message) -> None:
        """Store ``message`` on the literal trie path of ``topic``."""
        node = self.root
        for part in topic.split("/"):
            child = node.children.get(part)
            if child is None:
                child = node.children[part] = _TrieNode()
            node = child
        node.retained = message

    def retained_matching(self, pattern: str) -> List[Message]:
        """Retained messages whose topic matches a subscription pattern."""
        messages: List[Message] = []
        self._retained(self.root, validate_pattern(pattern), 0, messages)
        return messages

    def _retained(
        self, node: _TrieNode, parts: List[str], index: int, out: List[Message]
    ) -> None:
        if index == len(parts):
            if node.retained is not None:
                out.append(node.retained)
            return
        part = parts[index]
        if part == MULTI_WILDCARD:
            self._all_retained(node, out)
            return
        if part == SINGLE_WILDCARD:
            for child in node.children.values():
                self._retained(child, parts, index + 1, out)
            return
        child = node.children.get(part)
        if child is not None:
            self._retained(child, parts, index + 1, out)

    def _all_retained(self, node: _TrieNode, out: List[Message]) -> None:
        if node.retained is not None:
            out.append(node.retained)
        for child in node.children.values():
            self._all_retained(child, out)

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    def node_count(self) -> int:
        """Number of trie nodes (used by the pruning tests)."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
            if node.plus is not None:
                stack.append(node.plus)
        return count

    def walk(self) -> Iterator[Subscription]:
        """Iterate every stored subscription (insertion order per node)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield from node.hash_subscriptions
            yield from node.subscriptions
            stack.extend(node.children.values())
            if node.plus is not None:
                stack.append(node.plus)


@dataclass
class BrokerStatistics:
    """Counters the middleware-layer benchmarks read off the broker."""

    published: int = 0
    delivered: int = 0
    dropped_no_subscriber: int = 0
    per_topic_published: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    @property
    def fanout(self) -> float:
        """Average deliveries per published message."""
        if self.published == 0:
            return 0.0
        return self.delivered / self.published


class Broker:
    """In-process pub/sub broker with optional delivery latency.

    Thread safety: the routing trie, the retained-message store, the
    subscription registry and the statistics counters are guarded by one
    reentrant lock, so per-shard ingest workers may publish (and
    applications may subscribe / cancel) concurrently.  Publish fan-out
    invokes handlers *outside* the lock (one slow handler never blocks
    other threads; a handler racing a concurrent ``cancel`` may still
    observe one in-flight delivery), while subscribe-time retained replay
    runs *under* the lock so a concurrent newer publish cannot be
    reordered behind the stale snapshot.  The lock is reentrant, so
    handlers may publish or subscribe from either context without
    deadlocking against their own thread.

    Parameters
    ----------
    scheduler:
        When given, deliveries are scheduled ``delivery_latency`` simulated
        seconds after publication instead of being synchronous, which lets
        the end-to-end latency experiments account for middleware hops.
    delivery_latency:
        Simulated per-hop latency in seconds (ignored without a scheduler).
    """

    def __init__(
        self,
        scheduler: Optional[SimulationScheduler] = None,
        delivery_latency: float = 0.0,
    ):
        self._trie = SubscriptionTrie()
        self._subscriptions: List[Subscription] = []
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        self.scheduler = scheduler
        self.delivery_latency = delivery_latency
        self.statistics = BrokerStatistics()

    # ------------------------------------------------------------------ #
    # subscription management
    # ------------------------------------------------------------------ #

    def subscribe(
        self,
        pattern: str,
        handler: MessageHandler,
        subscriber_name: str = "anonymous",
        receive_retained: bool = True,
    ) -> Subscription:
        """Register ``handler`` for messages whose topic matches ``pattern``.

        Raises :class:`ValueError` immediately for an invalid pattern
        (a ``#`` that is not the last segment) instead of failing later
        at publish time.
        """
        parts = validate_pattern(pattern)
        subscription = Subscription(
            subscription_id=next(self._ids),
            pattern=pattern,
            handler=handler,
            subscriber_name=subscriber_name,
        )
        subscription._detach = self._detach
        retained: List[Message] = []
        with self._lock:
            self._trie.insert(subscription, parts)
            self._subscriptions.append(subscription)
            if receive_retained:
                # snapshot the retained messages under the lock and mark
                # the subscription as replaying: once it is in the trie, a
                # concurrent publisher could otherwise deliver a *newer*
                # message before the snapshot replay, leaving the
                # subscriber stuck on the stale value.  Publishers that
                # race the replay park their messages in the
                # subscription's backlog (see ``publish``), which is
                # drained in publish order below — so ordering is
                # preserved WITHOUT running the handler under the lock
                # (bar the bounded last resort in ``_drain_backlog``).
                # Holding the lock across handler calls deadlocks when a
                # subscriber thread's handler blocks on work owned by a
                # publisher thread that is itself waiting for the broker
                # lock (the asyncio serving gateway subscribes from the
                # event-loop thread while shard workers publish).
                retained = self._trie.retained_matching(pattern)
                subscription._replaying = bool(retained)
        for message in retained:
            self._deliver(subscription, message)
        if retained:
            self._drain_backlog(subscription)
        return subscription

    #: Unlocked drain passes before a fresh subscription is flipped to live
    #: delivery under the lock (see :meth:`_drain_backlog`).  Kept small:
    #: when publishers outrun the draining thread, every unlocked pass
    #: leaves a backlog several times the one it delivered.
    _DRAIN_PASSES = 2

    def _drain_backlog(self, subscription: Subscription) -> None:
        """Deliver publishes parked during retained replay, in order.

        Each pass swaps the backlog out under the lock and delivers it
        outside, because a handler running during the drain can overlap yet
        another concurrent publish; the replay flag is cleared (under the
        lock) once the backlog is observed empty, after which publishers
        deliver directly again.  Publishers that append faster than this
        thread drains would keep that from ever happening, so the passes
        are bounded: the last one delivers what is left *while holding the
        lock* — publishers wait, the backlog cannot grow, per-subscription
        order holds — and clears the flag there.
        """
        for _ in range(self._DRAIN_PASSES):
            with self._lock:
                backlog, subscription._backlog = subscription._backlog, []
                if not backlog:
                    subscription._replaying = False
                    return
            for message in backlog:
                self._deliver(subscription, message)
        with self._lock:
            backlog, subscription._backlog = subscription._backlog, []
            for message in backlog:
                self._deliver(subscription, message)
            subscription._replaying = False

    def unsubscribe(self, subscription: Subscription) -> None:
        """Cancel a subscription (idempotent)."""
        subscription.cancel()

    def _detach(self, subscription: Subscription) -> None:
        """Prune a cancelled subscription from the trie and the registry."""
        with self._lock:
            self._trie.remove(subscription)
            try:
                self._subscriptions.remove(subscription)
            except ValueError:
                pass

    @property
    def subscriptions(self) -> List[Subscription]:
        """The active subscriptions."""
        with self._lock:
            return [s for s in self._subscriptions if s.active]

    # ------------------------------------------------------------------ #
    # publication
    # ------------------------------------------------------------------ #

    def publish(
        self,
        topic: str,
        payload: Any,
        timestamp: Optional[float] = None,
        headers: Optional[Dict[str, Any]] = None,
        retain: bool = False,
    ) -> Message:
        """Publish a payload on ``topic`` and fan it out to subscribers."""
        if timestamp is None:
            timestamp = self.scheduler.clock.now if self.scheduler else 0.0
        message = Message(
            topic=topic, payload=payload, timestamp=timestamp, headers=dict(headers or {})
        )
        with self._lock:
            if retain:
                self._trie.set_retained(topic, message)
            self.statistics.published += 1
            self.statistics.per_topic_published[topic] += 1
            matched = self._trie.match(topic)
            if not matched:
                self.statistics.dropped_no_subscriber += 1
                return message
            recipients = []
            for subscription in matched:
                if subscription._replaying:
                    # a fresh subscriber is still replaying its retained
                    # snapshot: park this message so it is delivered after
                    # the snapshot, in publish order (the subscribing
                    # thread drains the backlog)
                    subscription._backlog.append(message)
                else:
                    recipients.append(subscription)
        # fan out outside the lock so handlers may publish / subscribe
        # reentrantly (and so one slow handler never blocks other threads)
        for subscription in recipients:
            if self.scheduler is not None and self.delivery_latency > 0:
                self.scheduler.schedule(
                    self.delivery_latency,
                    lambda s=subscription, m=message: self._deliver(s, m),
                )
            else:
                self._deliver(subscription, message)
        return message

    def _deliver(self, subscription: Subscription, message: Message) -> None:
        if not subscription.active:
            return
        subscription.handler(message)
        with self._lock:
            subscription.delivered += 1
            self.statistics.delivered += 1

    def __repr__(self) -> str:
        return (
            f"<Broker subscriptions={len(self.subscriptions)} "
            f"published={self.statistics.published} delivered={self.statistics.delivered}>"
        )
