import hashlib

import pytest

from conftest import is_unate, lp_separation, lp_threshold_masks, realize_mask
from margin_table import grid_family
from storalloc.core import MAX_K
from storalloc.errors import InputError
from storalloc.halfspaces import enumerate_halfspace_sets, is_upward_closed, minimal_members


def masks(k, monotone=False):
    """The weight grid's family (tests/margin_table.py), the reference the
    committed table and the library's family are checked against."""
    return list(grid_family(k, monotone))


class TestEnumeration:
    def test_k1_sets(self):
        # empty, {x=1}, {x=0}, full
        assert set(masks(1)) == {0b00, 0b10, 0b01, 0b11}

    def test_k2_count_and_xor_rejected(self):
        got = set(masks(2))
        assert len(got) == 14
        xor = 0b0110  # points 01 and 10
        xnor = 0b1001
        assert xor not in got and xnor not in got
        # so exactly the 16 functions minus the two parities
        assert got == set(range(16)) - {xor, xnor}

    def test_counts_k3(self):
        assert len(masks(3)) == 104

    def test_paths_agree_k_small(self):
        # the grid against the LP oracle, as ordered mask lists
        for k in (1, 2, 3):
            for monotone in (False, True):
                assert masks(k, monotone) == list(lp_threshold_masks(k, monotone))

    def test_monotone_paths_agree_k3_k4(self):
        for k in (3, 4):
            assert masks(k, monotone=True) == list(lp_threshold_masks(k, monotone=True))

    # sha256 of " ".join(str(mask)) over each sorted k = 5 family, taken
    # from the per-threshold scan before the subset-sum sweep replaced it.
    K5_DIGESTS = {
        True: "8f5cacdb6d7cf1df0d30427a4ab2bcc063e8338713a993e0dc1013e730910c56",
        False: "45733e4d027d26c9cdef1a13ad0f09e521d4b09fe9f97161f0da486d1b5e8b99",
    }

    @pytest.mark.parametrize("monotone", [True, False])
    def test_k5_family_pinned(self, monotone):
        got = sorted(masks(5, monotone))
        assert len(got) == (3287 if monotone else 94572)
        digest = hashlib.sha256(" ".join(map(str, got)).encode()).hexdigest()
        assert digest == self.K5_DIGESTS[monotone]

    def test_k5_monotone_sets_are_upward_closed(self):
        # the permutation closure of non-negative-weight sets needs no filter
        assert all(is_upward_closed(m, 5) for m in masks(5, monotone=True))

    def test_counts_k5(self):
        # OEIS A000609 and A000617 at k = 5; no LP oracle reaches this far
        assert len(masks(5)) == 94572
        assert len(masks(5, monotone=True)) == 3287

    def test_function_path_matches_reference_lp_at_k2(self):
        # every one of the 16 functions gets the plain one-LP test, without
        # the oracle's unateness and reorientation shortcuts
        expected = tuple(m for m in range(16) if lp_separation(m, 2) is not None)
        assert lp_threshold_masks(2) == expected

    def test_witnesses_realize_their_sets(self):
        for k in (1, 2, 3):
            for mask in masks(k):
                u, c = lp_separation(mask, k)
                assert realize_mask(u, c, k) == mask
                assert all(isinstance(v, int) for v in u)
                assert isinstance(c, int)

    def test_witness_magnitudes_within_mtt_style_bound(self):
        # integer realizations stay within the k^Theta(k) envelope; the
        # LP-scaled witnesses actually come out much smaller (<= 3 at k=4).
        # k=4 samples every 29th set: each witness costs an LP.
        for k, stride in ((2, 1), (3, 1), (4, 29)):
            for mask in masks(k)[::stride]:
                u, c = lp_separation(mask, k)
                assert all(abs(v) <= k**k for v in u)
                assert abs(c) <= (k + 1) ** (k + 1)

    def test_k0(self):
        assert masks(0) == [0, 1]
        assert masks(0, monotone=True) == [0, 1]

    def test_limits(self):
        assert MAX_K == 5
        with pytest.raises(InputError):
            enumerate_halfspace_sets(MAX_K + 1, monotone=True)
        with pytest.raises(InputError):
            enumerate_halfspace_sets(-1, monotone=True)

    @pytest.mark.parametrize("k", range(MAX_K + 1))
    def test_library_family_is_the_grids(self, k):
        # the committed table's family, in the grid's order
        sets = enumerate_halfspace_sets(k, monotone=True)
        assert [s.mask for s in sets] == masks(k, monotone=True)
        assert all(s.k == k for s in sets)

    def test_full_family_is_refused(self):
        # only the table generator's grid builds the flip closure
        with pytest.raises(InputError):
            enumerate_halfspace_sets(3, monotone=False)
        with pytest.raises(TypeError):
            enumerate_halfspace_sets(3)

    def test_monotone_filter(self):
        mono = enumerate_halfspace_sets(2, monotone=True)
        assert all(is_upward_closed(s.mask, 2) for s in mono)
        expected = [m for m in masks(2) if is_upward_closed(m, 2)]
        assert [s.mask for s in mono] == expected


class TestPredicates:
    def test_unate_examples(self):
        # AND of 2 vars: mask {11} = 0b1000
        assert is_unate(0b1000, 2)
        # XOR is not unate
        assert not is_unate(0b0110, 2)

    def test_threshold_implies_unate_k3(self):
        for mask in masks(3):
            assert is_unate(mask, 3)

    def test_minimal_members(self):
        # S = {x1=1} over k=2: points 1 and 3; minimal member is point 1
        assert minimal_members(0b1010, 2) == (1,)
        # S = {x : x1 + x2 + x3 >= 2}: the three weight-2 points
        assert minimal_members(0b11101000, 3) == (3, 5, 6)
        assert minimal_members(0, 3) == ()
        assert minimal_members(1, 0) == (0,)

    def test_upward_closed(self):
        assert is_upward_closed(0b1000, 2)  # {11}
        assert not is_upward_closed(0b0010, 2)  # {10} misses {11}
