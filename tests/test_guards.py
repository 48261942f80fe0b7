import pytest

from dispgrid import full_grid
from dispgrid.guards import DEFAULT_ENUMERATION_LIMIT, ENV_LIMIT, GuardExceeded, resolve_limit


class TestGuardResolution:
    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv(ENV_LIMIT, raising=False)
        assert resolve_limit(None, 1000) == 1000
        # 2^27 - 1 grid values on one axis pass the default limit, refused before any is built
        with pytest.raises(GuardExceeded) as info:
            full_grid(27, 1)
        assert (info.value.count, info.value.limit) == (2**27 - 1, DEFAULT_ENUMERATION_LIMIT)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_LIMIT, "5")
        assert resolve_limit(None, 1000) == 5
        with pytest.raises(GuardExceeded):
            full_grid(4, 1)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_LIMIT, "5")
        assert resolve_limit(200, 1000) == 200
        assert full_grid(4, 1, limit=100).n == 15

    def test_error_carries_count_and_limit(self):
        with pytest.raises(GuardExceeded) as info:
            full_grid(10, 1, limit=7)
        assert info.value.count == 2**10 - 1
        assert info.value.limit == 7
