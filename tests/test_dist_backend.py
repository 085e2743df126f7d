"""Tests for the repro.dist execution backends.

The backend contract is one ordered map over picklable payloads; the
serial backend is the reference and the process pool must agree with it
element for element, order included.
"""

import pickle

import pytest

from repro.dist import (
    Backend,
    DistConfig,
    ProcessBackend,
    SerialBackend,
    available_cpus,
    resolve_backend,
)


def square(x):
    return x * x


def tag_with_len(payload):
    return (payload, len(payload))


class TestDistConfig:
    def test_defaults_are_serial_noop(self):
        cfg = DistConfig()
        assert cfg.backend == "serial"
        assert cfg.shards == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "threads"},
            {"backend": "process"},
            {"shards": 0},
            {"start_method": "magic"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DistConfig(**kwargs)

    def test_picklable(self):
        cfg = DistConfig(backend="shard_server", shards=2)
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestResolve:
    def test_none_and_serial_resolve_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend(DistConfig()), SerialBackend)

    def test_backends_satisfy_protocol(self):
        assert isinstance(SerialBackend(), Backend)
        assert isinstance(ProcessBackend(1), Backend)


class TestSerialBackend:
    def test_map_ordered(self):
        assert SerialBackend().map_ordered(square, [3, 1, 2]) == [9, 1, 4]

    def test_empty(self):
        assert SerialBackend().map_ordered(square, []) == []


class TestProcessBackend:
    def test_matches_serial_in_order(self):
        payloads = list(range(10))
        want = SerialBackend().map_ordered(square, payloads)
        with ProcessBackend(workers=2) as backend:
            assert backend.map_ordered(square, payloads) == want

    def test_structured_payloads(self):
        payloads = [("a", 1), ("bb", 2), ("ccc", 3)]
        with ProcessBackend(workers=2) as backend:
            got = backend.map_ordered(tag_with_len, [p for p, _ in payloads])
        assert got == [(p, n) for p, n in payloads]

    def test_single_payload_runs_inline(self):
        backend = ProcessBackend(workers=2)
        assert backend.map_ordered(square, [7]) == [49]
        assert backend._pool is None  # the shortcut never built a pool
        backend.close()

    def test_pool_reused_across_calls(self):
        with ProcessBackend(workers=2) as backend:
            backend.map_ordered(square, [1, 2])
            pool = backend._pool
            backend.map_ordered(square, [3, 4])
            assert backend._pool is pool

    def test_close_is_idempotent(self):
        backend = ProcessBackend(workers=2)
        backend.map_ordered(square, [1, 2])
        backend.close()
        backend.close()

    def test_spawn_start_method(self):
        """Spawn re-imports workers, so payload/function pickling is load-bearing."""
        with ProcessBackend(workers=2, start_method="spawn") as backend:
            assert backend.map_ordered(square, [2, 5]) == [4, 25]

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessBackend(0)
        with pytest.raises(ValueError):
            ProcessBackend(1, start_method="nope")


def test_available_cpus_positive():
    assert available_cpus() >= 1
