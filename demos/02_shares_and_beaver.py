"""Additive secret sharing and Beaver multiplication.

A value x becomes (r, x - r) with r uniform over the ring; each share alone
is uniform noise.  Linear operations are local on this L=64, f=16 ring, which
rescales by shifting each share (a ring that truncates exactly spends a round
on each rescale); a product costs one dealer triple and a single round in
which both parties open masked operands.
A square pair halves the opened data because only one mask is needed.
"""

import numpy as np

from arp.dealer import Dealer, Request
from arp.fixed import FixedConfig, decode, encode
from arp.protocol import Session, ShareTensor, lin_combine, mul_beaver, square
from arp.runtime import run_both
from arp.transport import memory_channel_pair

cfg = FixedConfig(64, 16)
x = np.array([2.0, -1.5, 0.25])
y = np.array([3.0, 2.0, -4.0])

client = Dealer(seed=11, cfg=cfg)
x_shares = client.gen_shares(encode(x, cfg))
y_shares = client.gen_shares(encode(y, cfg))
print("x           :", x)
print("party0 share:", x_shares[0].words)
print("party1 share:", x_shares[1].words)
print("reconstruct :", decode(x_shares[0] + x_shares[1], cfg))

# offline phase: the dealer pre-generates the correlated randomness
dealer = Dealer(seed=7, cfg=cfg)
tapes = dealer.build_tapes([
    Request("beaver", (3,)),
    Request("square", (3,)),
])

# online phase: both parties run the same protocol program
ch0, ch1 = memory_channel_pair()
sessions = (
    Session(0, cfg, ch0, tapes[0].reader()),
    Session(1, cfg, ch1, tapes[1].reader()),
)


def party_program(sess):
    xs = ShareTensor(x_shares[sess.party], cfg.frac_bits)
    ys = ShareTensor(y_shares[sess.party], cfg.frac_bits)

    combo = lin_combine(sess, 2.0, xs, ys)  # local on this ring: zero rounds, zero bytes
    prod = mul_beaver(sess, xs, ys)  # one round, opens 2n masked words
    opened_by_mul = sess.opened_words
    sq = square(sess, xs)  # one round, opens only n masked words
    opened_by_square = sess.opened_words - opened_by_mul
    return {
        "2x+y": decode(sess.reveal(combo), cfg),
        "x*y": decode(sess.reveal(prod), cfg),
        "x^2": decode(sess.reveal(sq), cfg),
        "opened by mul": opened_by_mul,
        "opened by square": opened_by_square,
    }


r0, r1 = run_both(lambda: party_program(sessions[0]), lambda: party_program(sessions[1]))
print("\n2x + y =", r0["2x+y"], "(expected", 2 * x + y, ")")
print("x * y  =", r0["x*y"], "(expected", x * y, ")")
print("x^2    =", r0["x^2"], "(expected", x * x, ")")
print("\nmasked words opened by the multiply:", r0["opened by mul"], "(= 2n)")
print("masked words opened by the square  :", r0["opened by square"], "(= n, half of a multiply)")
print("rounds used in total:", ch0.rounds)
print("both parties agree:", all(np.allclose(r0[k], r1[k]) for k in ("2x+y", "x*y", "x^2")))
