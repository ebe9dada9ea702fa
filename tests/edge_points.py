"""Parameter points at the edges of the model, shared by the test modules.

``exact_k`` is the truth that verdicts next to the exceptional point are
held to: k_coef of the float inputs in exact arithmetic.  Each named point
comes with the command-line flags that select it.
"""

from fractions import Fraction

from ptdirac.params import PhysParams


def exact_k(p):
    """k_coef of the float inputs in exact arithmetic (Fraction(x) is exact)."""
    v_f, lam, k1, b0, e, c, hbar = (
        Fraction(x) for x in (p.v_f, p.lam, p.k1, p.b0, p.e, p.c, p.hbar)
    )
    return hbar * (2 * (v_f * v_f - lam * lam) * b0 * e / c - 4 * k1 * v_f * v_f)


def flags(p):
    """Command-line flags that select p, each value written as its repr."""
    names = {"v_f": "vf", "lam": "lambda", "k1": "k1", "b0": "b0", "e": "e",
             "c": "c", "hbar": "hbar"}
    return [f"--{flag}={getattr(p, field)!r}" for field, flag in names.items()]


# H's coefficients reach 4e45 and the envelope exponents 7e10.  The roundoff
# left at the build's off-pattern keys, about eps |c1| = 6.3e29 with
# |c1| = 3.95e45, is above 1e-10 of every kept coefficient of the image it
# sits in (a hbar (l + 1) is about 5.7e34 (l + 1)), and fixed residual
# tolerances failed five verify rows here although spectrum and analytic
# agree.
LARGE = PhysParams(
    v_f=1.4410316224903703e22, lam=-2.2544541471337918e32,
    k1=3.4875786276944343e18, b0=4805680236767382.0, hbar=126.24025690634625,
)
LARGE_FLAGS = flags(LARGE)

# Every entry of the truncation is far below 1: the raising amplitudes are
# about 1e-12 and the lowering ones 1.6e-9 (l + 1).
SMALL = PhysParams(v_f=1e-6, lam=2e-7, k1=1e-6, b0=1e-4, hbar=1e-3)
SMALL_FLAGS = flags(SMALL)

# Next to the EP the ladder commutator reads 4.7e-11: roundoff times
# k_scale / |k_coef|, which a fixed 1e-12 failed.
NEAR_EP = PhysParams(
    v_f=3.390979818026962, lam=0.12106483447653558, k1=0.040741782364899636,
    b0=11.177448959751246, hbar=0.2778793993027819,
)
NEAR_EP_FLAGS = flags(NEAR_EP)

# c1, c2 and d are subnormal, so k_scale carries the subnormal grid's reach.
SUBNORMAL = PhysParams(
    v_f=0.8713275317543699, lam=0.3959494577303741, k1=2.93443470977e-313,
    b0=1.0132746824012e-310, hbar=2.8610706541825857,
)
SUBNORMAL_FLAGS = flags(SUBNORMAL)

# k_coef = -9.45e-319 sits 1.4e-12 k_scale from 0, outside the critical
# band, and (a hbar)(b hbar) / k_coef overflows: the float ladder
# commutator's coefficients are inf and its images inf - inf = nan.
SUBNORMAL_K = PhysParams(
    v_f=8.501721549170652, lam=3.1000612912184686, k1=-4.888085364676e-311,
    b0=-1.544724734658859e-308, hbar=0.13021746425664166,
)
SUBNORMAL_K_FLAGS = flags(SUBNORMAL_K)

# d = -1.8e199: the ladder commutator's coefficients, about 9.1e198, times d
# overflow inside its images, so the float residual is inf - inf = nan from
# finite coefficients and a finite envelope exponent.
HUGE_ENVELOPE = PhysParams(v_f=1e-200, lam=0.5, k1=0.02, b0=100.0, hbar=1e-200)
HUGE_ENVELOPE_FLAGS = flags(HUGE_ENVELOPE)

# k = (a c2 - b c1) hbar underflows to 0, and analytic reads k = 0.0, while
# the raising amplitude k / (a hbar) = c2 - (b/a) c1 is 3.4e-170: a
# closed-form check that formed k read the build as 3.4e-170 off.
K_UNDERFLOW = PhysParams(
    v_f=2.7682398815300566e-102, lam=-2.169964651550437e-45, k1=0.0,
    b0=-3.806819181310655e+139, e=5.630572838135322e-263, hbar=2.103297957450973e-140,
)
K_UNDERFLOW_FLAGS = flags(K_UNDERFLOW)

# a c2 = 2.1e-319 is subnormal, so even (a c2 - b c1) / a, which forms no
# hbar, loses the raising amplitude c2 - (b/a) c1 = 1.8e-177.
PRODUCT_UNDERFLOW = PhysParams(
    v_f=1.194696783475631e-142, lam=-1.7625765506459135e-199, k1=0.0,
    b0=1.241679306233177e+190, e=1.6477971024152432e-223, hbar=1.6679629531053952e-70,
)
PRODUCT_UNDERFLOW_FLAGS = flags(PRODUCT_UNDERFLOW)

# a hbar = -7.4e307 is finite, but the lowering entries a hbar (l + 1) overflow from l = 2 on.
LOWERING_OVERFLOW = PhysParams(
    v_f=9.730184527579507e-134, lam=7.718084489274386e+160, k1=-1.354024981547577e+65,
    b0=3.965989142916151e-107, e=5.764615791616636e-244, c=1.306898569989616e-86,
    hbar=4.768842784428357e+146,
)
LOWERING_OVERFLOW_FLAGS = flags(LOWERING_OVERFLOW)

# |a hbar| = |b hbar| = 1.2e308 are finite but their sum is not: a grid formed from it was inf.
GRID_OVERFLOW = PhysParams(v_f=1.0, lam=1e150, k1=0.0, b0=0.0, hbar=6e157)
