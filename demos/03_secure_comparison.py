"""Secure comparison and ReLU: why the nonlinearity is the expensive part.

Sign extraction turns each party's arithmetic share into bit planes, then a
carry tree over the two shares (one batched AND per level) finds the carry
into the top bit: that carry XOR both top bits is the XOR-shared sign.  One
dealt bit-injection triple then multiplies a share by an XOR-shared bit in
a single round (`select`): b2a selects the public one by the sign, and ReLU
selects x by the complemented sign.  Every linear layer is round-free; one
ReLU (a2b, then select) costs 2 + ceil(log2(L-1)) rounds.  This demo
prints the ladder.
"""

import math

import numpy as np

from arp.dealer import Dealer, DealingReader
from arp.fixed import FixedConfig, decode, encode
from arp.protocol import Session, ShareTensor, a2b, a2b_geometry, b2a, ltz, relu_secure
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

    r0, w0 = sess.channel.rounds, sess.opened_words
    sign = a2b(sess, xs)  # the XOR-shared sign bit of each element
    ladder["a2b (sign bit)"] = (sess.channel.rounds - r0, sess.opened_words - w0)

    r0, w0 = sess.channel.rounds, sess.opened_words
    b2a(sess, sign)
    ladder["b2a (select 1)"] = (sess.channel.rounds - r0, sess.opened_words - w0)

    r0, w0 = sess.channel.rounds, sess.opened_words
    negative = ltz(sess, xs)
    ladder["ltz (a2b + b2a)"] = (sess.channel.rounds - r0, sess.opened_words - w0)

    r0, w0 = sess.channel.rounds, sess.opened_words
    relu = relu_secure(sess, xs)
    ladder["relu (a2b + select)"] = (sess.channel.rounds - r0, sess.opened_words - w0)

    return ladder, sess.reveal_bits(sign).words, sess.reveal(negative).words, decode(sess.reveal(relu), cfg)


(ladder, sign, neg, relu), _ = run_both(lambda: program(sessions[0]), lambda: program(sessions[1]))

words, leaves, _ = a2b_geometry(cfg, x.size)
print(f"bit width L = {cfg.total_bits}: {leaves} carry-tree leaves, "
      f"{math.ceil(math.log2(cfg.total_bits - 1))} levels, {words} plane word(s) for {x.size} elements")
print("round ladder (rounds, words this party opens):")
for step, (rounds, opened) in ladder.items():
    print(f"  {step:<24} {rounds} rounds  {opened:4d} words")
print("\nx        :", x)
print("sign bit :", sign, " (a2b's XOR sharing, opened)")
print("x < 0    :", neg, " (zero counts as non-negative)")
print("relu(x)  :", relu)
