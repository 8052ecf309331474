"""Threshold validation of the congest study config."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.fabric.congest import CongestConfig


class TestCongestThresholds:
    @pytest.mark.parametrize("k", [math.inf, -math.inf])
    def test_infinite_threshold_rejected(self, k):
        # used to pass ``k >= 1`` and fail only inside ``arm_config``,
        # after the network was built
        with pytest.raises(ConfigurationError, match="finite"):
            CongestConfig(ks=(10, k))

    @pytest.mark.parametrize("ks", [(10.2, 10.7), (10, 10.5), (30, 60, 60.9)])
    def test_colliding_ratio_keys_rejected(self, ks):
        # ``fifo_vs_ecn_p99`` keys each arm by ``str(int(k))``: two
        # thresholds with one integer part kept a single ratio
        with pytest.raises(ConfigurationError, match="integer part"):
            CongestConfig(ks=ks)

    @pytest.mark.parametrize("ks", [(10, 30, 60), (1.5, 2.5), (10.5,)])
    def test_distinct_keys_accepted(self, ks):
        assert CongestConfig(ks=ks).to_dict()["ks"] == list(ks)
