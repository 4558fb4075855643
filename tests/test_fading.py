"""Fading laws: moments, quantiles, sampling.

Oracles: hand-computed closed forms for the Rayleigh law (its moments
reduce to gamma-function values), agreement between three different
parameterizations of the same physical law, and Monte Carlo estimates
with explicit standard-error budgets.
"""

import math
import warnings

import numpy as np
import pytest

from dicode.bounds import shannon_ergodic_capacity
from dicode.errors import DegenerateFadingError, QuadratureError
from dicode.fading import (
    Constant,
    DiscreteMixture,
    Nakagami,
    Rayleigh,
    Rician,
    parse_distribution,
    quantile_abs,
)

# Rayleigh with unit scale: E h = sqrt(pi/2), E h^2 = 2, E h^4 = 8,
# Var h = 2 - pi/2, Var h^2 = 4.  All from E h^k = 2^(k/2) Gamma(1 + k/2).
RAYLEIGH1_MEAN = 1.2533141373155003
RAYLEIGH1_VAR = 0.4292036732051032


def test_rayleigh_closed_form_moments():
    m = Rayleigh(1.0).moments()
    assert m.c == pytest.approx(RAYLEIGH1_MEAN, rel=1e-14)
    assert m.c == pytest.approx(math.sqrt(math.pi / 2), rel=1e-14)
    assert m.e2 == pytest.approx(2.0, rel=1e-14)
    assert m.e4 == pytest.approx(8.0, rel=1e-14)
    assert m.variance == pytest.approx(2 - math.pi / 2, rel=1e-13)
    assert m.var_sq == pytest.approx(4.0, rel=1e-13)


def test_moment_identities_hold_for_every_law():
    laws = [
        Constant(1.5),
        Rayleigh(0.7),
        Rician(2.0, 1.3),
        Nakagami(2.5, 0.8),
        DiscreteMixture(((0.5, 0.6), (1.5, 0.2), (2.0, 0.2))),
        DiscreteMixture(((-1.0, 0.5), (1.0, 0.5))),
    ]
    for law in laws:
        m = law.moments()
        assert m.variance == pytest.approx(m.e2 - m.c**2, abs=1e-12 * max(1, m.e2))
        assert m.var_sq == pytest.approx(m.e4 - m.e2**2, abs=1e-10 * max(1, m.e4))
        assert m.var_centered_sq == pytest.approx(m.cm4 - m.variance**2, abs=1e-10)
        assert m.variance >= 0 and m.var_sq >= 0 and m.var_centered_sq >= 0


def test_three_parameterizations_of_the_same_law_agree():
    # Rician with no line-of-sight and Nakagami with unit shape both
    # collapse to Rayleigh; the moments must match across all three.
    ray = Rayleigh(1.0).moments()
    ric = Rician(shape=0.0, scale=2.0).moments()
    nak = Nakagami(shape=1.0, spread=2.0).moments()
    for field in ("c", "e2", "e3", "e4", "variance", "var_sq"):
        assert getattr(ric, field) == pytest.approx(getattr(ray, field), rel=1e-8)
        assert getattr(nak, field) == pytest.approx(getattr(ray, field), rel=1e-12)


def test_constant_law_is_exact():
    m = Constant(2.0).moments()
    assert (m.c, m.e2, m.e4) == (2.0, 4.0, 16.0)
    assert m.variance == 0.0 and m.var_sq == 0.0 and m.var_centered_sq == 0.0


def test_mixture_moments_by_direct_sum():
    atoms = ((0.5, 0.6), (1.5, 0.2), (2.0, 0.2))
    m = DiscreteMixture(atoms).moments()
    c = 0.6 * 0.5 + 0.2 * 1.5 + 0.2 * 2.0
    assert m.c == pytest.approx(c, rel=1e-14)          # = 1.0
    assert m.c == pytest.approx(1.0, rel=1e-14)
    cm3 = sum(p * (v - c) ** 3 for v, p in atoms)
    assert m.cm3 == pytest.approx(cm3, rel=1e-12)      # = 0.15, skewed on purpose
    assert m.cm3 == pytest.approx(0.15, rel=1e-12)


def test_mixture_with_negative_atoms_has_zero_mean():
    m = DiscreteMixture(((-1.0, 0.5), (1.0, 0.5))).moments()
    assert m.c == 0.0
    assert m.e2 == 1.0
    assert m.variance == 1.0
    assert m.cm3 == 0.0


def test_mixture_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        DiscreteMixture(((1.0, 0.5), (2.0, 0.6)))
    with pytest.raises(ValueError):
        DiscreteMixture(((1.0, -0.1), (2.0, 1.1)))


def test_nakagami_shape_floor():
    Nakagami(0.5, 1.0)  # boundary is allowed
    with pytest.raises(ValueError):
        Nakagami(0.49, 1.0)


@pytest.mark.parametrize("law", [
    Rayleigh(1.0),
    Rician(1.5, 2.0),
    Nakagami(2.0, 1.0),
    DiscreteMixture(((0.0, 0.3), (1.0, 0.7))),
])
def test_sampled_moments_match_closed_forms(law):
    rng = np.random.default_rng(123)
    draws = law.sample(rng, 400_000)
    m = law.moments()
    for k, target in ((1, m.c), (2, m.e2), (4, m.e4)):
        x = draws**k
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - target) < 5 * se, (k, x.mean(), target, se)


@pytest.mark.parametrize("law", [Rayleigh(1.3), Rician(2.0, 1.0), Nakagami(1.7, 2.0)])
def test_cdf_matches_empirical_distribution(law):
    rng = np.random.default_rng(7)
    draws = np.sort(law.sample(rng, 200_000))
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        x = draws[int(q * draws.size)]
        # DKW-style slack: empirical CDF error at 2e5 samples
        assert abs(law.cdf(x) - q) < 0.01


def test_quantile_rayleigh_frozen_value():
    # P(h < T) = 0.1 for unit-scale Rayleigh: T = sqrt(-2 ln 0.9)
    t = quantile_abs(Rayleigh(1.0), 0.1)
    assert t == pytest.approx(0.4590436050, abs=1e-8)
    assert t == pytest.approx(math.sqrt(-2 * math.log(0.9)), abs=1e-8)
    assert Rayleigh(1.0).cdf(t) == pytest.approx(0.1, abs=1e-8)


def test_quantile_constant_law():
    assert quantile_abs(Constant(1.0), 0.2) == 1.0
    assert quantile_abs(Constant(-2.0), 0.05) == 2.0  # magnitude, sign ignored


def test_quantile_discrete_steps():
    law = DiscreteMixture(((0.0, 0.3), (1.0, 0.7)))
    # P(|h| < T) jumps to 0.3 at any T > 0, so eta >= 0.3 admits T = 1
    assert quantile_abs(law, 0.4) == 1.0
    assert quantile_abs(law, 0.3) == 1.0


def test_quantile_degenerate_mass_at_zero():
    law = DiscreteMixture(((0.0, 0.3), (1.0, 0.7)))
    with pytest.raises(DegenerateFadingError):
        quantile_abs(law, 0.2)      # eta below the atom at zero
    assert law.p_zero == pytest.approx(0.3)


def test_quantile_threshold_keeps_outage_budget():
    # P(h < T) <= eta must hold at the returned T for continuous laws
    for law, eta in ((Rayleigh(2.0), 0.05), (Nakagami(1.5, 1.0), 0.17),
                     (Rician(1.0, 1.0), 0.3)):
        t = quantile_abs(law, eta)
        assert law.cdf(t) <= eta + 1e-9
        assert law.cdf(t * 1.001) > eta - 1e-6  # and it is the largest such T


def test_parse_round_trips():
    laws = [
        Constant(2.0),
        Rayleigh(0.5),
        Rician(3.0, 2.0),
        Nakagami(1.5, 0.7),
        DiscreteMixture(((-1.0, 0.5), (1.0, 0.5))),
    ]
    for law in laws:
        clone = parse_distribution(law.to_config())
        assert clone == law
    with pytest.raises(ValueError):
        parse_distribution({"type": "lognormal"})


@pytest.mark.parametrize("law", [Rayleigh(1.3), Nakagami(2.0, 1.0), Nakagami(0.7, 2.5)],
                         ids=["rayleigh", "nakagami", "nakagami-heavy"])
def test_expect_quadrature_matches_closed_form_moments(law):
    # expect() integrates against the pdf; raw_moment() is the gamma closed form
    for k in range(1, 5):
        assert law.expect(lambda h: h**k) == pytest.approx(law.raw_moment(k), rel=1e-9)


@pytest.mark.parametrize("law", [Rician(1e6, 1.0), Nakagami(1e7, 1.0)], ids=["rician", "nakagami"])
def test_expect_refuses_a_law_whose_mass_the_quadrature_misses(law):
    # both laws sit in a spike near h = 1 that quad's samples step over; E h
    # and the capacity would read about 0 with a tiny error estimate
    assert issubclass(QuadratureError, ValueError)  # the CLI exits 2 on it
    with pytest.raises(QuadratureError, match="reads the law's mass as .*, not 1"):
        law.expect(lambda h: h)
    assert law._quadrature_mass < 1e-20
    with pytest.raises(QuadratureError, match="out of the quadrature's reach"):
        shannon_ergodic_capacity(law, 1.0)


@pytest.mark.parametrize("law,e2", [(Nakagami(1e5, 1.0), 1.0), (Rician(3e5, 1.0), 1.0),
                                    (Rayleigh(0.01), 2e-4), (Rician(1.5, 2.0), 2.0),
                                    (Nakagami(0.5, 3.0), 3.0)],
                         ids=["nakagami-1e5", "rician-3e5", "rayleigh-0.01", "rician", "nakagami"])
def test_expect_takes_laws_whose_mass_the_quadrature_sees(law, e2):
    assert law.expect(lambda h: 1.0) == pytest.approx(1.0, abs=5e-10)
    assert law.expect(lambda h: h * h) == pytest.approx(e2, rel=1e-8)  # Omega, or 2 sigma^2


def test_a_law_too_wide_for_raw_units_integrates_in_its_own():
    # Rayleigh(1e6): raw-unit quadrature of log2(1 + h^2) errs by 0.08 and warns;
    # h^2 is exponential with mean mu = 2e12, so E ln(1 + h^2) = e^(1/mu) E1(1/mu)
    from scipy import special

    mu = 2e12
    want = math.exp(1 / mu) * special.exp1(1 / mu) / math.log(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and quad's own warning stays quiet
        got = shannon_ergodic_capacity(Rayleigh(1e6), 1.0)
    assert got == pytest.approx(want, rel=1e-9)
    assert want == pytest.approx(40.0304, abs=1e-4)


def test_atomic_laws_expect_exactly_over_their_atoms():
    assert Rayleigh(1.0).atoms is None
    assert Constant(-2.0).atoms == ((-2.0, 1.0),)
    law = DiscreteMixture([[0.0, 0.25], [2.0, 0.75]])  # any pairs; stored as tuples
    assert law.atoms == ((0.0, 0.25), (2.0, 0.75))
    assert law.expect(lambda h: 3.0 * h + 1.0) == 0.25 * 1.0 + 0.75 * 7.0
    assert (law.cdf(-1.0), law.cdf(0.0), law.cdf(2.0), law.p_zero) == (0.0, 0.25, 1.0, 0.25)


def test_sampling_is_reproducible():
    law = Rician(1.0, 1.0)
    a = law.sample(np.random.default_rng(9), 100)
    b = law.sample(np.random.default_rng(9), 100)
    assert np.array_equal(a, b)


MIXTURES = {
    "skewed": ((0.5, 0.6), (1.5, 0.2), (2.0, 0.2)),
    "zero-probability atom": ((0.0, 0.3), (7.0, 0.0), (1.0, 0.7)),
    "single atom": ((2.5, 1.0),),
    "negative and unsorted": ((1.0, 0.25), (-2.0, 0.5), (0.0, 0.125), (-0.5, 0.125)),
}


class _Uniforms:
    """A stand-in generator whose random() returns, or fills out with, fixed uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None, out=None):
        if out is None:
            return self.u
        out[...] = self.u
        return out


@pytest.mark.parametrize("name", sorted(MIXTURES))
def test_discrete_sampler_lookup_equals_searchsorted(name):
    # uniforms exactly on every cdf value (zero-probability atoms repeat
    # one), one ulp below and above each, and 0
    law = DiscreteMixture(MIXTURES[name])
    cdf, values = law._cdf, law._values
    u = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
                        np.random.default_rng(4).random(1000)])
    u = u[u < 1.0]  # what Generator.random draws
    assert np.array_equal(law.sample(_Uniforms(u), u.size),
                          values[cdf.searchsorted(u, side="right")])
    for x in u:
        got = law.sample(_Uniforms(float(x)))
        assert type(got) is np.float64 and got == values[cdf.searchsorted(x, side="right")]
    # the last entry is exactly 1.0, above every draw, so the sampler leaves it
    # out: a u of 1, which Generator.random never draws, reads the last atom
    # where a count of every entry would run past it
    assert cdf[-1] == 1.0
    assert law.sample(_Uniforms(np.array([1.0])), 1)[0] == values[-1]
    with pytest.raises(IndexError):
        values[cdf.searchsorted(np.array([1.0]), side="right")]


# (3, 50_000): more than four sampling blocks of 2^15 uniforms, the 256 KiB of
# WORK_BYTES, and not a multiple of one
@pytest.mark.parametrize("size", [None, 1, 1000, (40, 7), (3, 50_000)], ids=repr)
@pytest.mark.parametrize("name", sorted(MIXTURES))
def test_discrete_sampler_draws_what_numpy_choice_draws(name, size):
    atoms = MIXTURES[name]
    law = DiscreteMixture(atoms)
    vals = np.array([v for v, _ in atoms])
    probs = np.array([p for _, p in atoms])
    ours, theirs = np.random.default_rng(31), np.random.default_rng(31)
    for _ in range(3):  # the table is built once and reused
        got = law.sample(ours, size)
        want = vals[theirs.choice(len(vals), size, p=probs / probs.sum())]
        assert type(got) is type(want)
        assert np.array_equal(got, want)
    # both generators stand at the same point of their streams
    assert ours.random() == theirs.random()
    assert ours.bit_generator.state == theirs.bit_generator.state


LAWS = {
    "constant": Constant(-1.5),
    "rayleigh": Rayleigh(0.7),
    "rician": Rician(2.0, 1.3),
    "nakagami": Nakagami(0.7, 2.5),
    "discrete": DiscreteMixture(MIXTURES["negative and unsorted"]),
}


@pytest.mark.parametrize("shape", [(), (1,), (40, 7), (3, 50_000)], ids=repr)
@pytest.mark.parametrize("name", sorted(LAWS))
def test_filling_a_buffer_draws_what_sampling_a_size_draws(name, shape):
    # (3, 50_000) fills a discrete or Rician law's buffer in five blocks, the last partial
    law = LAWS[name]
    sized, filled = np.random.default_rng(12), np.random.default_rng(12)
    buf = np.full(shape, np.nan)
    for _ in range(2):  # a reused buffer is overwritten whole
        want = law.sample(sized, shape if shape else None)
        got = law.sample(filled, out=buf)
        assert got is buf
        assert np.array_equal(got, want)
        assert sized.bit_generator.state == filled.bit_generator.state
    if not shape:  # no size: a numpy float64 scalar, not a 0-d array
        assert type(want) is np.float64


@pytest.mark.parametrize("name", sorted(set(LAWS) - {"constant"}))
def test_a_strided_buffer_is_refused_not_filled_in_a_copy(name):
    buf = np.zeros((4, 6))
    with pytest.raises(ValueError):
        LAWS[name].sample(np.random.default_rng(0), out=buf[:, ::2])
    assert not buf.any()
