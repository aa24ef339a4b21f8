"""Secure comparison and ReLU: why the nonlinearity is the expensive part.

Sign extraction converts the arithmetic sharing to an XOR sharing with a
Kogge-Stone adder (one batched AND per level), grabs the top bit locally,
and converts that bit back.  Every linear layer is round-free; one ReLU
costs 3 + ceil(log2 L) rounds.  This demo prints the ladder.
"""

import numpy as np

from arp.dealer import Dealer, DealingReader
from arp.fixed import FixedConfig, decode, encode
from arp.protocol import Session, ShareTensor, a2b, adder_levels, b2a, ltz, msb, relu_secure
from arp.runtime import run_both
from arp.transport import memory_channel_pair

cfg = FixedConfig(64, 16)
x = np.array([-3.25, -0.0001, 0.0, 0.0001, 7.5])
x_shares = Dealer(seed=1, cfg=cfg).gen_shares(encode(x, cfg))

# each party's dealer deals a record at the moment an op takes it, so the
# program below needs no list of the records it takes
ch0, ch1 = memory_channel_pair()
sessions = [Session(p, cfg, ch, DealingReader(Dealer(seed=2, cfg=cfg), p)) for p, ch in enumerate((ch0, ch1))]


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

print(f"bit width L = {cfg.total_bits}, adder levels = {adder_levels(cfg)}")
print("round ladder:")
for step, rounds in ladder.items():
    print(f"  {step:<24} {rounds} rounds")
print("\nx        :", x)
print("x < 0    :", neg, " (zero counts as non-negative)")
print("relu(x)  :", relu)
