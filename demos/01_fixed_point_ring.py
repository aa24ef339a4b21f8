"""Fixed-point encoding into the ring Z_2^L.

Reals are scaled by 2^f, rounded half away from zero, and stored as L-bit
two's-complement words.  Products land at scale 2f and are rescaled by an
arithmetic shift.  Everything wraps mod 2^L, which is exactly what the
secret-sharing layer needs.
"""

import numpy as np

from arp.fixed import FixedConfig, decode, encode, flat_frame, frame_payload, truncate, unpack_words

cfg = FixedConfig(total_bits=16, frac_bits=8)
print(f"ring Z_2^{cfg.total_bits}, {cfg.frac_bits} fractional bits")
print(f"representable range [{cfg.min_real}, {cfg.max_real}], resolution {cfg.resolution}")

# a few values and their ring representation
for v in (1.5, -1.0, 0.3, cfg.min_real):
    r = encode(v, cfg)
    print(f"  {v:>8} -> word {int(r.words):6d} -> decodes to {decode(r, cfg).item():.6f}")

# products carry scale 2f and need one truncation; the raw product must fit
# the signed L-bit range, so a (16, 8) layout only has headroom for |x*y| < 0.5
a, b = encode(0.5, cfg), encode(0.5, cfg)
raw = a * b
print(f"\n0.5 * 0.5: raw product word {int(raw.words)} (scale 2f)")
print(f"truncated: {decode(truncate(raw, cfg), cfg).item()}  (back at scale f)")
wide = FixedConfig(total_bits=64, frac_bits=16)
prod = truncate(encode(1.5, wide) * encode(2.0, wide), wide)
print(f"at L=64, f=16 there is room: 1.5 * 2.0 = {decode(prod, wide).item()}")

# arithmetic wraps: the ring does not saturate
big = encode(127.0, cfg)
print(f"\n127.0 + 1.0 wraps: {decode(big + encode(1.0, cfg), cfg).item()}")

# round trip accuracy is half an ULP across the range
rng = np.random.default_rng(0)
xs = rng.uniform(-100, 100, size=10_000)
err = np.abs(decode(encode(xs, cfg), cfg) - xs).max()
print(f"\nmax |decode(encode(x)) - x| over 10k samples: {err:.2e} (half ULP = {cfg.resolution / 2:.2e})")

# the wire: every opening sends one flat frame, a rank-1 header word (rank 1,
# then the word count, each a u32) followed by ceil(L/8)-byte little-endian words
frame = flat_frame(4)
frame[1:] = encode(np.array([1.5, -1.0, 0.3, 2.0]), cfg).words
payload = bytes(frame_payload(frame, cfg))
print(f"\nframe of 4 words at L={cfg.total_bits}: {len(payload)} bytes")
print(f"  header {payload[:8].hex()} words {payload[8:].hex()}")
words = unpack_words(payload[8:], (4,), cfg)
print(f"  the peer decodes {decode(words, cfg)}")
