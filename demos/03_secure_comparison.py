"""Secure comparison and ReLU: why the nonlinearity is the expensive part.

Sign extraction converts the arithmetic sharing to an XOR sharing with a
Kogge-Stone adder (one batched AND per level), grabs the top bit locally,
and converts that bit back.  Every linear layer is round-free; one ReLU
costs 3 + ceil(log2 L) rounds.  This demo prints the ladder.
"""

import math

import numpy as np

from arp.dealer import Dealer, Request
from arp.fixed import FixedConfig, decode, encode
from arp.protocol import (
    Session,
    ShareTensor,
    a2b,
    a2b_requests,
    b2a,
    ltz,
    ltz_requests,
    msb,
    relu_requests,
    relu_secure,
)
from arp.runtime import run_both
from arp.transport import memory_channel_pair

cfg = FixedConfig(64, 16)
x = np.array([-3.25, -0.0001, 0.0, 0.0001, 7.5])
x_shares = Dealer(seed=1, cfg=cfg).gen_shares(encode(x, cfg))

# the tape must mirror the program below: a2b, then the b2a multiply, then
# a full ltz, then a full relu
reqs = (
    a2b_requests((5,), cfg)
    + [Request("beaver", (5,))]
    + ltz_requests((5,), cfg)
    + relu_requests((5,), cfg)
)
tapes = Dealer(seed=2, cfg=cfg).build_tapes(reqs)
ch0, ch1 = memory_channel_pair()
sessions = (Session(0, cfg, ch0, tapes[0].reader()), Session(1, cfg, ch1, tapes[1].reader()))


def program(sess):
    xs = ShareTensor(x_shares[sess.party], cfg.frac_bits)
    ladder = {}

    r0 = sess.channel.rounds
    bits = a2b(sess, xs)
    ladder["a2b"] = sess.channel.rounds - r0

    r0 = sess.channel.rounds
    sign = msb(bits)  # local bit extraction
    ladder["msb"] = sess.channel.rounds - r0

    r0 = sess.channel.rounds
    sign_arith = b2a(sess, sign)
    ladder["b2a"] = sess.channel.rounds - r0

    r0 = sess.channel.rounds
    negative = ltz(sess, xs)
    ladder["ltz (all three)"] = sess.channel.rounds - r0

    r0 = sess.channel.rounds
    relu = relu_secure(sess, xs)
    ladder["relu (ltz + multiply)"] = sess.channel.rounds - r0

    return ladder, sess.reveal(negative).words, decode(sess.reveal(relu), cfg)


(ladder, neg, relu), _ = run_both(lambda: program(sessions[0]), lambda: program(sessions[1]))

print(f"bit width L = {cfg.total_bits}, adder levels = {math.ceil(math.log2(cfg.total_bits))}")
print("round ladder:")
for step, rounds in ladder.items():
    print(f"  {step:<24} {rounds} rounds")
print("\nx        :", x)
print("x < 0    :", neg, " (zero counts as non-negative)")
print("relu(x)  :", relu)
