"""JoinRequest / ServiceConfig validation and serialization."""

import dataclasses

import pytest

from repro.hsm.cache import CacheConfig
from repro.service.requests import JoinRequest, ServiceConfig
from repro.sweep.serialize import rebuild


class TestJoinRequest:
    def test_defaults_and_volume_names(self):
        request = JoinRequest(name="q1", r_mb=10.0, s_mb=40.0)
        assert request.volume_r == "q1-R"
        assert request.volume_s == "q1-S"
        assert request.arrival_s == 0.0

    def test_explicit_volumes_win(self):
        request = JoinRequest(name="q1", r_mb=10.0, s_mb=40.0, r_volume="dim")
        assert request.volume_r == "dim"
        assert request.volume_s == "q1-S"

    def test_r_must_not_exceed_s(self):
        with pytest.raises(ValueError, match="must not exceed"):
            JoinRequest(name="q1", r_mb=50.0, s_mb=40.0)

    def test_sizes_must_be_positive(self):
        with pytest.raises(ValueError):
            JoinRequest(name="q1", r_mb=0.0, s_mb=40.0)

    def test_arrival_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            JoinRequest(name="q1", r_mb=1.0, s_mb=4.0, arrival_s=-1.0)

    @pytest.mark.parametrize("size", [float("nan"), float("inf")])
    def test_sizes_must_be_finite(self, size):
        with pytest.raises(ValueError, match="finite"):
            JoinRequest(name="q1", r_mb=size, s_mb=40.0)
        with pytest.raises(ValueError, match="finite"):
            JoinRequest(name="q1", r_mb=1.0, s_mb=size)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
    def test_arrival_must_be_finite(self, arrival):
        with pytest.raises(ValueError, match="arrival"):
            JoinRequest(name="q1", r_mb=1.0, s_mb=4.0, arrival_s=arrival)

    def test_nan_deadline_is_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            JoinRequest(name="q1", r_mb=1.0, s_mb=4.0, deadline_s=float("nan"))

    def test_dict_round_trip(self):
        request = JoinRequest(
            name="q1", r_mb=10.0, s_mb=40.0, r_volume="dim",
            memory_mb=4.0, deadline_s=1000.0, arrival_s=5.0,
        )
        assert rebuild(JoinRequest, request.to_dict()) == request

    def test_to_dict_drops_defaults(self):
        payload = JoinRequest(name="q1", r_mb=10.0, s_mb=40.0).to_dict()
        assert "deadline_s" not in payload
        assert "arrival_s" not in payload


class TestServiceConfig:
    def test_pool_defaults_to_twice_per_job(self):
        config = ServiceConfig(memory_mb=8.0, disk_mb=50.0)
        assert config.pool_memory_mb == 16.0
        assert config.pool_disk_mb == 100.0

    def test_explicit_pools_win(self):
        config = ServiceConfig(memory_mb=8.0, memory_total_mb=40.0)
        assert config.pool_memory_mb == 40.0

    @pytest.mark.parametrize(
        "field", ["memory_mb", "disk_mb", "memory_total_mb", "disk_total_mb",
                  "exchange_s"],
    )
    def test_nan_budgets_are_rejected(self, field):
        with pytest.raises(ValueError):
            ServiceConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["memory_mb", "disk_mb", "exchange_s"])
    def test_infinite_budgets_are_rejected(self, field):
        with pytest.raises(ValueError):
            ServiceConfig(**{field: float("inf")})

    def test_dict_round_trip(self, config):
        restored = rebuild(ServiceConfig, config.to_dict())
        # Pools serialize resolved (explicit sizes fingerprint better), so
        # compare the resolved views rather than raw fields.
        assert restored.pool_memory_mb == config.pool_memory_mb
        assert restored.pool_disk_mb == config.pool_disk_mb
        assert restored.cache is None
        assert restored.to_dict() == config.to_dict()

    def test_dict_round_trip_with_cache(self, config):
        config = dataclasses.replace(config, cache=CacheConfig(50.0, "cost"))
        restored = rebuild(ServiceConfig, config.to_dict())
        assert restored.cache == config.cache
        assert restored.to_dict() == config.to_dict()
