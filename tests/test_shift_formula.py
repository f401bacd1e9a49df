"""Elizalde's closed form for the patterns of the shift, against both walks.

sawtooth:N, x -> N x mod 1, is the one-sided shift on N symbols, and a
pattern pi of length n is realized by it exactly when N >= N(pi), where

    N(pi) = 1 + des(pi^) + eps(pi^)

(S. Elizalde, The number of permutations realized by a shift, SIAM J.
Discrete Math. 23 (2009)).  pi^ is the cycle (pi_1, ..., pi_n) with
pi^(pi_n) a star: pi^(pi_i) = pi_{i+1}.  des counts the descents of
pi^(1) ... pi^(n) with the star left out, and eps is 1 when that
sequence begins "star 1" or ends "n star" (pi ends in 2 1 or in n-1 n),
else 0.  The formula shares no code with the engine, so it checks the
full walk (exact_allowed) and the pruned one (is_realized) independently.
"""

import pytest

from patlab import all_perms, exact_allowed, is_realized, sawtooth, shortest_forbidden_length


def shift_count(pi):
    """N(pi), the fewest symbols of a shift that realizes pi."""
    n = len(pi)
    hat = [0] * (n + 1)  # hat[v] = pi^(v), 0 for the star
    for a, b in zip(pi, pi[1:]):
        hat[a] = b
    seq = [v for v in hat[1:] if v]
    des = sum(x > y for x, y in zip(seq, seq[1:]))
    eps = hat[1] == 0 and hat[2] == 1 or hat[n - 1] == n and hat[n] == 0
    return 1 + des + eps


def test_formula_on_known_values():
    # the monotone patterns need two symbols; the shortest forbidden
    # patterns of the binary shift have length 4, and there are six
    assert shift_count((1, 2, 3, 4)) == shift_count((4, 3, 2, 1)) == 2
    assert [p for p in all_perms(3) if shift_count(p) > 2] == []
    assert {p for p in all_perms(4) if shift_count(p) > 2} == {
        (1, 4, 2, 3), (2, 1, 3, 4), (2, 3, 1, 4), (3, 2, 4, 1), (3, 4, 2, 1), (4, 1, 3, 2)
    }


@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_full_walk_matches_the_formula(N, n):
    expected = {p for p in all_perms(n) if shift_count(p) <= N}
    assert set(exact_allowed(sawtooth(N), n)) == expected


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_shortest_forbidden_length_is_n_plus_two(N):
    # Amigo, Elizalde and Kennel (J. Combin. Theory Ser. A 2008)
    first = next(n for n in range(2, N + 3) if any(shift_count(p) > N for p in all_perms(n)))
    assert first == N + 2
    assert shortest_forbidden_length(sawtooth(N), N + 2) == N + 2


# Rank words of the first n shifts of seeded random words on N symbols,
# kept when N(pi) = N: lengths 20 to 30, far past any full enumeration.
LONG = [
    "14 22 12 20 10 17 1 2 4 6 7 9 16 24 19 8 15 23 13 21 11 18 3 5",
    "18 23 15 12 8 26 22 2 6 16 14 11 5 13 10 4 9 1 3 7 19 24 17 20 25 21",
    "19 18 17 13 8 1 5 25 14 9 3 16 12 7 28 24 11 4 21 23 2 6 27 20 22 26 15 10",
    "14 9 16 20 7 10 19 5 28 27 23 15 17 25 21 8 13 3 12 1 2 6 4 24 18 26 22 11",
    "16 17 18 22 7 20 1 6 14 11 3 9 19 23 15 13 10 2 8 21 4 12 5",
    "4 16 19 3 12 1 2 7 15 18 21 11 14 10 13 9 8 6 5 17 20",
    "17 2 7 15 14 20 9 4 8 1 5 10 11 12 13 16 21 18 3 19 6",
    "5 20 4 17 8 15 11 22 13 3 14 7 12 23 18 19 24 21 10 16 1 6 9 2",
    "5 21 8 7 2 10 18 20 3 13 23 12 19 22 17 15 6 1 4 16 9 11 14",
    "19 14 8 5 11 21 20 3 9 10 16 17 18 13 7 2 6 15 12 4 1",
]


@pytest.mark.parametrize("text", LONG)
def test_pruned_walk_matches_the_formula(text):
    pi = tuple(int(v) for v in text.split())
    assert sorted(pi) == list(range(1, len(pi) + 1))
    N = shift_count(pi)
    assert 2 <= N <= 6
    assert is_realized(sawtooth(N), pi)
    if N > 2:
        assert not is_realized(sawtooth(N - 1), pi)


def test_long_patterns_span_the_symbol_counts():
    # the pruned-walk check above needs both answers, at every N
    assert sorted({shift_count(tuple(int(v) for v in t.split())) for t in LONG}) == [2, 3, 4, 5, 6]
