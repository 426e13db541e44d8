"""The intersection ring of N^1(X) by Segre classes: a test oracle.

X is the blow-up of Y = P(O_Z + O_Z(a)) along a surface S over a smooth
member A of |O_Z(d)|, where Z is a Fano 3-fold of index i whose ample
generator H has degree delta = H^3.  N^1(X) is spanned by h = phi*H, the
tautological class xi of Y and the exceptional divisor E, with

    Ghat = xi - E,   G = xi - a*h,   Ehat = d*h - E.

The ring is the table of the 15 quartic monomials h^i xi^j E^k (Fulton,
*Intersection Theory*, Section 3.1 and Prop. 6.7):

- k = 0: h^i xi^j = a^(j-1) delta for j >= 1, as xi^2 = a h xi and
  h^3 xi = delta; h^4 = 0;
- k = 1: 0, since E meets a pulled-back curve class in nothing;
- k >= 2: E^k beta = (-1)^(k-1) int_S s_(k-2)(N) beta|_S, with the normal
  bundle N = O_A(dH) + O_A(aH), h|_S = H, xi|_S = a*H and int_A H^2 = d delta.
  The Segre classes s(N) = 1/c(N) are 1, -(a+d)H and (a^2 + ad + d^2)H^2.

The total Chern class of X is Aluffi's formula for a blow-up along the
complete intersection of xi and d*h (*Chern classes of blow-ups*, Math.
Proc. Cambridge Philos. Soc. 148, 2010), over c(Y) = c(Z)(1 + xi)(1 + xi - a h):

    c(X) = c(Z)(1 + E)(1 + xi - E)(1 + xi - a h)(1 + d h - E)/(1 + d h),

with c(Z) = 1 + i H + (24/(i delta)) H^2 + (e(Z)/delta) H^3, since
c2(Z).H = 24/i, and e(Z) = 4 - 2 h^{1,2}(Z).  A class is a dict from the
exponents (i, j, k) of h^i xi^j E^k to its coefficient, truncated above
degree 4.  The Chern character and the Todd class, up to degree 4, give
Hirzebruch-Riemann-Roch, chi(F) = int ch(F) td(X); a line bundle O_X(D) has
c = 1 + D, so ch = exp(D).

The module reads only the ints (i, delta, a, d), and h^{1,2}(Z) for c(X),
computes in ints and ``Fraction``s, never floats, and imports nothing from
``fano4``, so a test may compare it with any of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def segre_table(delta: int, a: int, d: int) -> dict[tuple[int, int, int], int]:
    """h^i xi^j E^k for each (i, j, k) with i + j + k = 4."""
    segre = (1, -(a + d), a * a + a * d + d * d)
    table = {}
    for k in range(5):
        for j in range(5 - k):
            if k == 0:
                value = a ** (j - 1) * delta if j else 0
            elif k == 1:
                value = 0
            else:   # beta = h^i xi^j restricts to a^j H^(4-k) on S
                value = (-1) ** (k - 1) * segre[k - 2] * a ** j * d * delta
            table[(4 - j - k, j, k)] = value
    return table


def intersect(table: dict[tuple[int, int, int], int], *divisors) -> int:
    """D1 D2 D3 D4 for four divisors over (h, xi, E): the degree of their
    product in the ring."""
    return integrate(table, multiply(*map(linear, divisors)))


def over_ring_basis(coords: tuple[int, int, int]) -> tuple[int, int, int]:
    """x phi*H + y Ghat + z E, the basis of ``fano4.cones``, over (h, xi, E):
    x h + y xi + (z - y) E, since Ghat = xi - E."""
    x, y, z = coords
    return (x, y, z - y)


def anticanonical(i: int, a: int) -> tuple[int, int, int]:
    """-K_X over (h, xi, E): K_Y = -2 xi - (i - a) h on the P^1-bundle, and a
    blow-up along a codimension-2 centre adds E, K_X = K_Y + E."""
    return (i - a, 2, -1)


def named_divisors(a: int, d: int) -> dict[str, tuple[int, int, int]]:
    """E, Ehat, G and Ghat over (h, xi, E), from the relations above."""
    return {"E": (0, 0, 1), "Ehat": (d, 0, -1), "G": (-a, 1, 0),
            "Ghat": (0, 1, -1)}


def image_dimension(table: dict[tuple[int, int, int], int],
                    D: tuple[int, int, int],
                    antiK: tuple[int, int, int]) -> int:
    """The dimension of the image of the map of a nef class D, over
    (h, xi, E): the largest k with D^k (-K)^(4-k) != 0."""
    return max(k for k in range(5)
               if intersect(table, *[D] * k, *[antiK] * (4 - k)))


Class = dict[tuple[int, int, int], int | Fraction]


def linear(D: tuple[int, int, int]) -> Class:
    """The class of the divisor D over (h, xi, E)."""
    return {(1, 0, 0): D[0], (0, 1, 0): D[1], (0, 0, 1): D[2]}


def multiply(*classes: Class) -> Class:
    """The product of the classes, truncated above degree 4."""
    out: Class = {(0, 0, 0): 1}
    for factor in classes:
        product: Class = {}
        for (i1, j1, k1), c1 in out.items():
            for (i2, j2, k2), c2 in factor.items():
                if i1 + j1 + k1 + i2 + j2 + k2 <= 4:
                    key = (i1 + i2, j1 + j2, k1 + k2)
                    product[key] = product.get(key, 0) + c1 * c2
        out = product
    return out


def part(c: Class, degree: int) -> Class:
    """The degree-``degree`` part of c."""
    return {m: v for m, v in c.items() if sum(m) == degree and v}


def integrate(table: dict[tuple[int, int, int], int], c: Class) -> int | Fraction:
    """The degree of the quartic part of c, by the Segre table."""
    return sum(v * table[m] for m, v in part(c, 4).items())


def one_plus(D: tuple[int, int, int]) -> Class:
    """1 + D, the total Chern class of O_X(D)."""
    return {(0, 0, 0): 1, **linear(D)}


def chern_class(i: int, delta: int, h12: int, a: int, d: int) -> Class:
    """c(X) by Aluffi's formula, from (i, delta, h^{1,2}(Z), a, d) alone."""
    c_Z = {(0, 0, 0): 1, (1, 0, 0): i, (2, 0, 0): Fraction(24, i * delta),
           (3, 0, 0): Fraction(4 - 2 * h12, delta)}
    # 1/(1 + d h), truncated: the powers of -d h up to h^4
    inverse = {(n, 0, 0): (-d) ** n for n in range(5)}
    return multiply(c_Z, one_plus((0, 0, 1)), one_plus((0, 1, -1)),
                    one_plus((-a, 1, 0)), one_plus((d, 0, -1)), inverse)


def combine(*terms: tuple[int | Fraction, Class]) -> Class:
    """The sum of weight * class over the (weight, class) pairs."""
    out: Class = {}
    for weight, c in terms:
        for m, v in c.items():
            out[m] = out.get(m, 0) + weight * v
    return out


def dual(c: Class) -> Class:
    """The class with its degree-k part times (-1)^k: c(F*) from c(F), and
    ch(F*) from ch(F)."""
    return {m: (-1) ** sum(m) * v for m, v in c.items()}


def chern_character(rank: int, c: Class) -> Class:
    """ch of a bundle of rank ``rank`` and total Chern class c, up to degree
    4: ch_k = p_k/k!, where the power sums p_k of the Chern roots follow
    from Newton's identities, p_k = sum_{j<k} (-1)^(j-1) c_j p_(k-j) +
    (-1)^(k-1) k c_k."""
    cs = [part(c, k) for k in range(5)]
    powers = [{(0, 0, 0): rank}]
    for k in range(1, 5):
        powers.append(combine(
            *(((-1) ** (j - 1), multiply(cs[j], powers[k - j]))
              for j in range(1, k)),
            ((-1) ** (k - 1) * k, cs[k])))
    return combine(*((Fraction(1, factorial(k)), p) for k, p in enumerate(powers)))


def todd_class(c: Class) -> Class:
    """td(X) from c(X), up to degree 4: 1 + c1/2 + (c1^2 + c2)/12 + c1 c2/24
    + (-c1^4 + 4 c1^2 c2 + 3 c2^2 + c1 c3 - c4)/720."""
    _, c1, c2, c3, c4 = (part(c, k) for k in range(5))
    return combine(
        (1, {(0, 0, 0): 1}), (Fraction(1, 2), c1),
        (Fraction(1, 12), combine((1, multiply(c1, c1)), (1, c2))),
        (Fraction(1, 24), multiply(c1, c2)),
        (Fraction(1, 720), combine(
            (-1, multiply(c1, c1, c1, c1)), (4, multiply(c1, c1, c2)),
            (3, multiply(c2, c2)), (1, multiply(c1, c3)), (-1, c4))))

