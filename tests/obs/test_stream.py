"""The event bus behind the SSE API: semantics and backpressure.

Covers: per-topic monotonic sequence ids, replay history and the
``Last-Event-ID`` floor, the bound on retained topics, drop-oldest
backpressure with an exact dropped counter
(including under concurrent publishers), that a keeping-up subscriber
loses nothing, and ≥ 4 subscribers fed concurrently.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.stream import (
    JOB_TOPIC_PREFIX,
    MAX_TOPICS,
    TERMINAL_EVENT_KINDS,
    EventBus,
    StreamEvent,
)


class TestBusBasics:
    def test_sequence_ids_are_per_topic_and_monotonic_from_1(self):
        bus = EventBus()
        assert bus.publish("a", "x", {}) == 1
        assert bus.publish("a", "x", {}) == 2
        assert bus.publish("b", "x", {}) == 1
        assert bus.last_seq("a") == 2
        assert bus.last_seq("b") == 1
        assert bus.last_seq("never") == 0

    def test_events_arrive_in_order_with_kind_and_data(self):
        bus = EventBus()
        sub = bus.subscribe("t")
        bus.publish("t", "sample", {"v": 1})
        bus.publish("t", "detection", {"v": 2})
        first = sub.get(timeout=1.0)
        second = sub.get(timeout=1.0)
        assert first == StreamEvent(1, "sample", {"v": 1})
        assert second == StreamEvent(2, "detection", {"v": 2})
        assert sub.get(timeout=0.01) is None

    def test_publish_retains_history_with_zero_subscribers(self):
        bus = EventBus()
        for i in range(5):
            bus.publish("t", "sample", {"i": i})
        sub = bus.subscribe("t")  # attach after the fact
        got = [sub.get(timeout=1.0) for _ in range(5)]
        assert [e.seq for e in got] == [1, 2, 3, 4, 5]

    def test_replay_floor_is_the_last_event_id_contract(self):
        bus = EventBus()
        for i in range(10):
            bus.publish("t", "sample", {"i": i})
        sub = bus.subscribe("t", last_event_id=7)
        got = [sub.get(timeout=1.0) for _ in range(3)]
        assert [e.seq for e in got] == [8, 9, 10]
        assert sub.get(timeout=0.01) is None

    def test_history_is_bounded(self):
        bus = EventBus(history=4)
        for i in range(10):
            bus.publish("t", "sample", {"i": i})
        sub = bus.subscribe("t")
        got = [sub.get(timeout=1.0) for _ in range(4)]
        assert [e.seq for e in got] == [7, 8, 9, 10]

    def test_unsubscribe_is_idempotent_and_closes(self):
        bus = EventBus()
        sub = bus.subscribe("t")
        bus.unsubscribe(sub)
        bus.unsubscribe(sub)
        assert sub.closed
        assert bus.subscriber_count("t") == 0
        assert bus.publish("t", "sample", {}) == 1  # no delivery, no error

    def test_introspection_counts(self):
        bus = EventBus()
        a = bus.subscribe("t")
        b = bus.subscribe("t")
        bus.subscribe("u")
        assert bus.subscriber_count("t") == 2
        assert bus.subscriber_count() == 3
        assert bus.subscriber_count("v") == 0
        bus.publish("t", "x", {})
        assert bus.published_total() == 1
        assert bus.topics() == ["t", "u"]
        bus.unsubscribe(a)
        bus.unsubscribe(b)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            EventBus(history=0)
        with pytest.raises(ValueError):
            EventBus(queue_size=0)


class TestTopicBound:
    def test_oldest_topics_are_forgotten(self):
        bus = EventBus()
        names = [f"job:{k:03d}" for k in range(MAX_TOPICS + 5)]
        for name in names:
            bus.publish(name, "sample", {})
        assert MAX_TOPICS == 64
        assert bus.topics() == names[5:]
        assert bus.last_seq(names[0]) == 0

    def test_recently_published_topic_survives(self):
        bus = EventBus()
        bus.publish("busy", "sample", {})
        for k in range(MAX_TOPICS - 1):
            bus.publish(f"job:{k:03d}", "sample", {})
        bus.publish("busy", "sample", {})
        bus.publish("new", "sample", {})
        assert "busy" in bus.topics()
        assert "job:000" not in bus.topics()
        assert bus.last_seq("busy") == 2

    def test_subscribed_topic_is_never_forgotten(self):
        bus = EventBus()
        bus.publish("watched", "sample", {"i": 0})
        sub = bus.subscribe("watched")
        for k in range(2 * MAX_TOPICS):
            bus.publish(f"job:{k:03d}", "sample", {})
        assert "watched" in bus.topics()
        assert len(bus.topics()) == MAX_TOPICS
        assert bus.publish("watched", "sample", {"i": 1}) == 2
        assert [sub.get(timeout=1.0).seq for _ in range(2)] == [1, 2]
        bus.unsubscribe(sub)
        for k in range(MAX_TOPICS):
            bus.publish(f"job:new{k:03d}", "sample", {})
        assert "watched" not in bus.topics()

    def test_subscribing_creates_a_topic_under_the_bound(self):
        bus = EventBus()
        for k in range(MAX_TOPICS):
            bus.publish(f"job:{k:03d}", "sample", {})
        sub = bus.subscribe("late")
        assert len(bus.topics()) == MAX_TOPICS
        assert "job:000" not in bus.topics()
        bus.unsubscribe(sub)


class TestBackpressure:
    def test_slow_subscriber_drops_oldest_and_counts_exactly(self):
        bus = EventBus()
        sub = bus.subscribe("t", queue_size=8)
        for i in range(20):
            bus.publish("t", "sample", {"i": i})
        # Oldest 12 dropped; the queue converged on the live edge.
        assert sub.dropped == 12
        assert bus.dropped_total() == 12
        got = [sub.get(timeout=1.0) for _ in range(8)]
        assert [e.seq for e in got] == list(range(13, 21))

    def test_fast_subscriber_loses_nothing(self):
        bus = EventBus()
        sub = bus.subscribe("t", queue_size=4)
        got = []
        for i in range(100):
            bus.publish("t", "sample", {"i": i})
            got.append(sub.get(timeout=1.0))  # keeps up
        assert [e.seq for e in got] == list(range(1, 101))
        assert sub.dropped == 0
        assert bus.dropped_total() == 0

    def test_dropped_counter_exact_under_concurrent_publishers(self):
        bus = EventBus()
        n_publishers, per_publisher, qsize = 8, 200, 16
        sub = bus.subscribe("t", queue_size=qsize)

        def blast():
            for _ in range(per_publisher):
                bus.publish("t", "sample", {})

        threads = [threading.Thread(target=blast) for _ in range(n_publishers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_publishers * per_publisher
        # Exactly (published - queue capacity) events were dropped, and
        # the bus-wide counter agrees with the subscription's own.
        assert sub.pending() == qsize
        assert sub.dropped == total - qsize
        assert bus.dropped_total() == sub.dropped
        assert bus.published_total() == total

    def test_four_subscribers_with_concurrent_publishers(self):
        bus = EventBus()
        subs = [bus.subscribe("t", queue_size=4096) for _ in range(4)]
        n_publishers, per_publisher = 4, 250

        def blast():
            for _ in range(per_publisher):
                bus.publish("t", "sample", {})

        threads = [threading.Thread(target=blast) for _ in range(n_publishers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_publishers * per_publisher
        for sub in subs:
            got = [sub.get(timeout=1.0) for _ in range(total)]
            # Every subscriber saw every event exactly once, in order.
            assert sorted(e.seq for e in got) == list(range(1, total + 1))
            assert sub.dropped == 0
        assert bus.dropped_total() == 0


class TestConstants:
    def test_topic_naming(self):
        assert JOB_TOPIC_PREFIX == "job:"

    def test_terminal_kinds(self):
        assert TERMINAL_EVENT_KINDS == {
            "job_done",
            "job_failed",
            "job_cancelled",
        }
