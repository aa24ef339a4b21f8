"""Pins the benchmark's exact counts at the default seed.

Bytes, rounds, tape bytes, opened comparison words and kept ReLUs are
deterministic for a fixed model recipe and seed, so any change to them is a
deliberate protocol, dealer or trainer change and must re-pin them here.

    python3 -m pytest arpbench/test_pins.py -q
"""

import pytest

import run
import tracing

SEED = 1

PINNED = {
    # all 768 activations ReLU: 30 opened words per element, 47.2 MB per party
    "cnn-relu-b256-tcp": dict(bytes_per_example=47194340 / 256, rounds_per_request=19,
                              **{"dealer.tape_bytes": 70779171,
                                 "protocol.comparison_opened_words": 768 * 30 * 256,
                                 "replace.kept_relus": 768}),
    # budget 200 collapses the plan to zero kept ReLUs: squares and the logits only
    "cnn-plan-b256-mem": dict(bytes_per_example=1581092 / 256, rounds_per_request=3,
                              **{"dealer.tape_bytes": 3145763,
                                 "protocol.comparison_opened_words": 0,
                                 "replace.kept_relus": 0}),
    "mlp-plan-b1-tcp": dict(bytes_per_example=16140, rounds_per_request=21,
                            **{"dealer.tape_bytes": 24375,
                               "protocol.comparison_opened_words": 64 * 30,
                               "replace.kept_relus": 64}),
    # the served check runs on the 205-example held-out split
    "train-mlp-b64": dict(bytes_per_example=3257292 / 205, rounds_per_request=21,
                          **{"dealer.tape_bytes": 4933431,
                             "protocol.comparison_opened_words": 64 * 30 * 205,
                             "replace.kept_relus": 64}),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_exact_counts_are_pinned(name):
    assert run.exact_counts(name, SEED) == PINNED[name]


def test_every_trace_target_resolves():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == set()
