"""Golden replay for the elastic/async trajectories (PR 10).

The static-membership matrix (``tests/test_runtime.py``) proves the refactor
changed no *existing* numbers; this suite pins the *new* deterministic
schedules — bounded-staleness async cycles, membership churn/eviction, and
load-proportional rebalancing — so future refactors cannot silently drift
them.  Regenerate with ``tools/capture_elastic_goldens.py`` only when a
trajectory change is intended and reviewed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from .elastic_scenarios import ELASTIC_SCENARIOS, run_elastic_scenario

GOLDENS_PATH = Path(__file__).parent / "data" / "elastic_goldens.json"
GOLDENS = json.loads(GOLDENS_PATH.read_text())


class TestElasticGoldenReplay:
    def test_every_scenario_has_a_golden(self):
        assert set(ELASTIC_SCENARIOS) == set(GOLDENS)

    @pytest.mark.parametrize("name", sorted(ELASTIC_SCENARIOS))
    def test_bit_identical(self, name):
        fp = run_elastic_scenario(name)
        golden = GOLDENS[name]
        assert set(fp) == set(golden), f"{name}: fingerprint fields changed"
        for field_name in sorted(golden):
            assert fp[field_name] == golden[field_name], (
                f"{name}: field {field_name!r} drifted from its golden"
            )

    @pytest.mark.parametrize("name", sorted(ELASTIC_SCENARIOS))
    def test_bit_identical_on_numpy_kernels(self, name, numpy_kernels):
        """The goldens hold on the numpy reference kernel too."""
        assert run_elastic_scenario(name) == GOLDENS[name], name

    def test_elastic_scenarios_actually_resize(self):
        """Every membership scenario's log records at least one change."""
        for name in ("elastic-join-leave", "elastic-churn", "elastic-evict",
                     "async-elastic", "svm-elastic"):
            assert len(GOLDENS[name]["membership"]) > 0, name
