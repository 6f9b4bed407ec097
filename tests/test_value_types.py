"""Public behaviour of the immutable value types: construction, equality,
hashing, repr, immutability, pickling and copying, and validation messages.
"""

import copy
import math
import pickle

import pytest

from fdrelay import (
    Allocation,
    DomainError,
    LinkStats,
    McEstimate,
    OptResult,
    SystemConfig,
)

from conftest import approx_coeffs

CFG = SystemConfig(100.0, 0.1, 3.0)
QPSK_CFG = SystemConfig(100.0, 0.1, 3.0, 2.0, 2.0, 1.0)
CLAMPED = Allocation(1e-7, 0.5)
STATS = LinkStats(400.0, 400.0, 5.0, 0.0125)
EST = McEstimate(0.5, 0.01, 20000, 7)
COUNTED = McEstimate(0.5, 0.01, 100000, 7, 50000)
OPT = OptResult(CLAMPED, 0.01, "brent", 1e-9, 12)
COEFFS = approx_coeffs(2)

# every field of each type, in declaration order
FIELDS = {
    SystemConfig: ("total_power", "rsi_level", "pathloss_exp", "sum_distance",
                   "alpha_mod", "beta_mod"),
    Allocation: ("rho_lambda", "rho_d", "clamped"),
    LinkStats: ("lambda_sr", "lambda_rd", "lambda_li", "eta"),
    McEstimate: ("value", "std_error", "n_samples", "seed", "count"),
    OptResult: ("allocation", "ser", "method", "foc_residual", "iterations",
                "bracket_width"),
    type(COEFFS): ("exact",),
}

VALUES = [CFG, QPSK_CFG, CLAMPED, Allocation(0.25, 0.5), STATS, EST, COUNTED, OPT,
          COEFFS]


def fields(obj):
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


class TestConstruction:
    def test_positional_and_keyword_agree(self):
        assert SystemConfig(100.0, 0.1, 3.0, 1.0, 1.0, 2.0) == SystemConfig(
            total_power=100.0, rsi_level=0.1, pathloss_exp=3.0, sum_distance=1.0,
            alpha_mod=1.0, beta_mod=2.0)
        assert Allocation(0.25, 0.5) == Allocation(rho_d=0.5, rho_lambda=0.25)
        assert STATS == LinkStats(lambda_sr=400.0, lambda_rd=400.0, lambda_li=5.0,
                                  eta=0.0125)
        assert COUNTED == McEstimate(value=0.5, std_error=0.01, n_samples=100000,
                                     seed=7, count=50000)
        assert OPT == OptResult(allocation=CLAMPED, ser=0.01, method="brent",
                                foc_residual=1e-9, iterations=12, bracket_width=0.0)

    def test_defaults(self):
        assert fields(CFG) == (100.0, 0.1, 3.0, 1.0, 1.0, 2.0)
        assert EST.count is None
        assert OPT.bracket_width == 0.0
        assert Allocation(0.25, 0.5).clamped is False

    def test_allocation_clamps_whatever_clamped_says(self):
        assert fields(Allocation(0.25, 0.5, True)) == (0.25, 0.5, False)
        assert fields(Allocation(1e-7, 0.5, clamped=False)) == (1e-6, 0.5, True)
        assert fields(Allocation(0.5, 2.0)) == (0.5, 1.0 - 1e-6, True)

    def test_link_stats_keeps_its_arguments(self):
        assert fields(STATS) == (400.0, 400.0, 5.0, 0.0125)

    def test_missing_argument_is_a_type_error(self):
        with pytest.raises(TypeError):
            SystemConfig(100.0, 0.1)
        with pytest.raises(TypeError):
            Allocation(0.5)
        with pytest.raises(TypeError):
            McEstimate(0.5, 0.01, 20000)

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError):
            SystemConfig(100.0, 0.1, 3.0, power=1.0)


class TestEquality:
    def test_equal_values_are_equal_and_hash_alike(self):
        for obj in VALUES:
            twin = type(obj)(*fields(obj))
            assert twin == obj and not twin != obj
            assert hash(twin) == hash(obj)

    def test_allocation_ignores_clamped(self):
        floor = Allocation(1e-6, 0.5)
        assert not floor.clamped and CLAMPED.clamped
        assert floor == CLAMPED
        assert hash(floor) == hash(CLAMPED)
        assert len({floor, CLAMPED}) == 1

    def test_mc_estimate_compares_every_field(self):
        assert EST != McEstimate(0.5, 0.01, 20000, 7, 0)
        assert EST != McEstimate(0.5, 0.01, 20000, 8)
        assert EST != McEstimate(0.5, 0.02, 20000, 7)
        assert COUNTED != McEstimate(0.5, 0.01, 100000, 7, 50001)

    def test_other_types_never_equal(self):
        assert CFG != (100.0, 0.1, 3.0, 1.0, 1.0, 2.0)
        assert Allocation(0.25, 0.5) != (0.25, 0.5)
        assert STATS != CFG
        assert EST != 0.5

    def test_field_differences_break_equality(self):
        assert CFG != QPSK_CFG
        assert Allocation(0.25, 0.5) != Allocation(0.25, 0.75)
        assert OPT != OptResult(CLAMPED, 0.01, "brent", 1e-9, 12, 0.5)


class TestRepr:
    @pytest.mark.parametrize("obj, text", [
        (CFG, "SystemConfig(total_power=100.0, rsi_level=0.1, pathloss_exp=3.0, "
              "sum_distance=1.0, alpha_mod=1.0, beta_mod=2.0)"),
        (QPSK_CFG, "SystemConfig(total_power=100.0, rsi_level=0.1, pathloss_exp=3.0, "
                   "sum_distance=2.0, alpha_mod=2.0, beta_mod=1.0)"),
        (CLAMPED, "Allocation(rho_lambda=1e-06, rho_d=0.5, clamped=True)"),
        (Allocation(0.25, 0.5), "Allocation(rho_lambda=0.25, rho_d=0.5, clamped=False)"),
        (STATS, "LinkStats(lambda_sr=400.0, lambda_rd=400.0, lambda_li=5.0, eta=0.0125)"),
        (EST, "McEstimate(value=0.5, std_error=0.01, n_samples=20000, seed=7, count=None)"),
        (COUNTED, "McEstimate(value=0.5, std_error=0.01, n_samples=100000, seed=7, "
                  "count=50000)"),
        (OPT, "OptResult(allocation=Allocation(rho_lambda=1e-06, rho_d=0.5, clamped=True), "
              "ser=0.01, method='brent', foc_residual=1e-09, iterations=12, "
              "bracket_width=0.0)"),
        (COEFFS, "ApproxCoeffs(exact=((Fraction(1, 1), Fraction(1, 1)), "
                 "(Fraction(1, 2), Fraction(5, 3))))"),
    ])
    def test_repr(self, obj, text):
        assert repr(obj) == text


class TestImmutability:
    @pytest.mark.parametrize("obj", VALUES)
    def test_assignment_and_deletion_raise(self, obj):
        for name in FIELDS[type(obj)] + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(obj, name)


class TestPickleAndCopy:
    @pytest.mark.parametrize("obj", VALUES)
    @pytest.mark.parametrize("clone", [
        lambda o: pickle.loads(pickle.dumps(o)),
        lambda o: pickle.loads(pickle.dumps(o, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-protocol-0", "copy", "deepcopy"])
    def test_round_trip_keeps_every_field(self, obj, clone):
        back = clone(obj)
        assert type(back) is type(obj)
        assert fields(back) == fields(obj)
        assert back == obj and hash(back) == hash(obj)

    def test_clamped_survives(self):
        for clone in (pickle.loads(pickle.dumps(CLAMPED)), copy.copy(CLAMPED),
                      copy.deepcopy(CLAMPED), pickle.loads(pickle.dumps(OPT)).allocation):
            assert clone.clamped is True
            assert clone.rho_lambda == 1e-6


class TestValidationMessages:
    @pytest.mark.parametrize("build, message", [
        (lambda: SystemConfig(math.inf, 0.1, 3.0), "total_power must be finite, got inf"),
        # every field is checked for finiteness before any range check
        (lambda: SystemConfig(-1.0, math.nan, 3.0), "rsi_level must be finite, got nan"),
        (lambda: SystemConfig(100.0, 0.1, 3.0, beta_mod=-math.inf),
         "beta_mod must be finite, got -inf"),
        (lambda: SystemConfig(0.0, 0.1, 3.0), "total_power must be > 0, got 0.0"),
        (lambda: SystemConfig(100.0, -0.1, 3.0), "rsi_level must be >= 0, got -0.1"),
        (lambda: SystemConfig(100.0, 0.1, 1.0), "pathloss_exp must be > 1, got 1.0"),
        (lambda: SystemConfig(100.0, 0.1, 3.0, 0.0), "sum_distance must be > 0, got 0.0"),
        (lambda: SystemConfig(100.0, 0.1, 3.0, alpha_mod=0.0),
         "modulation constants must be > 0"),
        (lambda: Allocation(math.nan, 0.5), "rho_lambda must be finite, got nan"),
        (lambda: Allocation(0.5, math.inf), "rho_d must be finite, got inf"),
        (lambda: LinkStats(1.0, 1.0, 0.0, math.nan), "eta must be finite, got nan"),
        (lambda: LinkStats(0.0, 1.0, 0.0, 0.0), "lambda_sr and lambda_rd must be > 0"),
        (lambda: LinkStats(1.0, -1.0, 0.0, 0.0), "lambda_sr and lambda_rd must be > 0"),
        (lambda: LinkStats(1.0, 1.0, -1.0, 0.0), "lambda_li and eta must be >= 0"),
    ])
    def test_message(self, build, message):
        with pytest.raises(DomainError) as exc:
            build()
        assert str(exc.value) == message


class TestSystemConfigReplace:
    def test_changes_only_the_named_fields(self):
        cfg = CFG.replace(total_power=10.0, rsi_level=0.3)
        assert type(cfg) is SystemConfig
        assert fields(cfg) == (10.0, 0.3, 3.0, 1.0, 1.0, 2.0)
        assert fields(CFG) == (100.0, 0.1, 3.0, 1.0, 1.0, 2.0)
        assert QPSK_CFG.replace() == QPSK_CFG

    def test_validates_again(self):
        with pytest.raises(DomainError) as exc:
            CFG.replace(total_power=-1)
        assert str(exc.value) == "total_power must be > 0, got -1"
        with pytest.raises(DomainError):
            CFG.replace(rsi_level=math.nan)

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError):
            CFG.replace(power=1.0)
