import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpgreeks import (
    DomainError,
    FeeParams,
    hodl_value,
    ig_return_from_strike,
    il_curve,
    impermanent_gain,
    impermanent_loss,
    lp_value,
    pool_from_deposit,
)
from lpgreeks import payoff

returns = st.floats(min_value=-1.0, max_value=1e6)


class TestImpermanentLoss:
    def test_exact_surds(self):
        assert impermanent_loss(0.0) == 0.0
        assert impermanent_loss(3.0) == -0.5
        assert impermanent_loss(-0.75) == -0.125

    def test_price_to_zero_boundary(self):
        assert impermanent_loss(-1.0) == -0.5

    @pytest.mark.parametrize("r", [-1.0000001, -2.0, float("nan"), float("inf")])
    def test_rejects_out_of_domain(self, r):
        with pytest.raises(DomainError):
            impermanent_loss(r)

    @given(r=returns.filter(lambda r: abs(r) >= 1e-6))
    def test_strictly_negative_off_zero(self, r):
        # below |r| ~ 4e-8 the true value -r^2/8 sinks under the 1-scale rounding
        assert impermanent_loss(r) < 0.0

    @given(r=returns)
    def test_never_meaningfully_positive(self, r):
        assert impermanent_loss(r) <= 5e-16

    @given(
        v0=st.floats(1.0, 1e8),
        s0=st.floats(1e-3, 1e6),
        alpha=st.floats(1e-4, 1e4),
    )
    def test_consistent_with_position_values(self, v0, s0, alpha):
        pos = pool_from_deposit(v0, s0)
        s_t = alpha * s0
        shortfall = (lp_value(pos, s_t, 0.0, FeeParams(0.0)) - hodl_value(pos, s_t)) / v0
        assert shortfall == pytest.approx(impermanent_loss(s_t / s0 - 1.0), rel=1e-12, abs=1e-12)


class TestImpermanentGain:
    def test_exact_negation_values(self):
        assert impermanent_gain(0.0) == 0.0
        assert impermanent_gain(3.0) == 0.5
        assert impermanent_gain(-1.0) == 0.5

    @given(r=returns)
    def test_antisymmetry_is_exact(self, r):
        assert impermanent_gain(r) + impermanent_loss(r) == 0.0

    @given(r1=st.floats(-1.0, 100.0), r2=st.floats(-1.0, 100.0))
    def test_midpoint_convexity(self, r1, r2):
        mid = impermanent_gain((r1 + r2) / 2.0)
        chord = (impermanent_gain(r1) + impermanent_gain(r2)) / 2.0
        assert mid <= chord + 1e-12


class TestIgReturnFromStrike:
    def test_examples(self):
        assert ig_return_from_strike(1000.0, 1000.0) == 0.0
        assert ig_return_from_strike(4000.0, 1000.0) == 3.0
        assert ig_return_from_strike(500.0, 1000.0) == -0.5

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            ig_return_from_strike(0.0, 1000.0)
        with pytest.raises(DomainError):
            ig_return_from_strike(1000.0, -1.0)


class TestIlCurve:
    def test_three_point_grid(self):
        curve = il_curve(-0.5, 0.5, 3)
        assert [r for r, _ in curve] == [-0.5, 0.0, 0.5]
        assert curve[1] == (0.0, 0.0)
        assert curve[0][1] == impermanent_loss(-0.5)
        assert curve[2][1] == impermanent_loss(0.5)

    def test_endpoint_surds(self):
        curve = il_curve(-1.0, 3.0, 5)
        assert curve[0] == (-1.0, -0.5)
        assert curve[-1] == (3.0, -0.5)

    def test_maximum_is_zero_at_origin(self):
        curve = il_curve(-1.0, 3.0, 5)
        values = [v for _, v in curve]
        assert max(values) == 0.0
        assert curve[values.index(0.0)][0] == 0.0

    @pytest.mark.parametrize("r_min,r_max,n", [
        (0.5, -0.5, 3), (0.0, 0.0, 3), (-2.0, 1.0, 3), (-0.5, 0.5, 1),
    ])
    def test_rejects_bad_grids(self, r_min, r_max, n):
        with pytest.raises(DomainError):
            il_curve(r_min, r_max, n)

    @given(st.floats(-1.0, 0.0), st.floats(0.1, 10.0), st.integers(2, 50))
    def test_pointwise_match(self, r_min, width, n):
        curve = il_curve(r_min, r_min + width, n)
        assert len(curve) == n
        for r, value in curve:
            assert value == impermanent_loss(r)

    def test_math_sanity_of_surd_cases(self):
        # the three frozen surds restated through the alpha form
        for r, expected in [(0.0, 0.0), (3.0, -0.5), (-0.75, -0.125)]:
            alpha = r + 1.0
            assert math.sqrt(alpha) - alpha / 2.0 - 0.5 == expected


class TestEvenlySpaced:
    def test_matches_numpy_linspace_bits(self):
        # return grids, figure spot ranges 0.1*ref..4*ref across the float range, and subnormal
        # ranges, where the step underflows to 0 and numpy takes its i/(n - 1)*(stop - start) branch
        rng = random.Random(20261020)
        zero_steps = 0
        for case in range(3000):
            if case % 3 == 0:
                start = rng.choice([0.0, -0.0, 5e-324, -1e-310, 1e-308])
                stop = start + rng.choice([5e-324, 1e-323, 4e-322, 2e-320])
            elif case % 3 == 1:
                start = rng.uniform(-1.0, 3.0)
                stop = start + rng.uniform(1e-6, 4.0)
            else:
                ref = 10.0 ** rng.uniform(-300.0, 300.0)
                start, stop = 0.1 * ref, 4.0 * ref
            n = 2 if case % 5 == 0 else rng.randint(3, 300)
            zero_steps += (stop - start) / (n - 1) == 0.0
            want = [x.hex() for x in np.linspace(start, stop, n).tolist()]
            assert [x.hex() for x in payoff._evenly_spaced(start, stop, n)] == want, (start, stop, n)
        assert zero_steps > 100

    def test_il_curve_loads_no_numpy(self):
        src = str(Path(payoff.__file__).resolve().parents[1])
        probe = ("import sys; from lpgreeks.payoff import il_curve; il_curve(-1.0, 3.0, 201); "
                 "print('numpy' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert done.stdout == "False\n"
