"""Gang-width tests for lockstep TAML meta-training.

A gang is the set of same-shape leaves that ``taml_train`` trains in one
stacked fused pass.  A tree with ``n`` uniform leaves must run them as
one gang of width ``n`` and reproduce the serial run (one ``meta_train``
per leaf, in order) bit for bit: ``np.array_equal``, not ``allclose``.
"""

import pytest

from tests.test_meta_lockstep import check_taml, uniform_groups


class TestBitIdenticalReduction:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_gang_width_matches_serial(self, workers):
        """Gangs of 2 and 4 leaves vs the serial per-leaf run: bit-identical
        thetas, loss and generator state."""
        widest, sequential = check_taml(uniform_groups(n_leaves=workers))
        assert widest == workers
        assert sequential == 0
