"""End to end: train a replacement plan, export it, evaluate it privately.

The exported model file carries plaintext weights, the per-element mask, and
the per-channel coefficients.  Both compute servers see the model; only the
inputs are secret shared.  The phase table shows where the communication
goes and what the replacement saves.
"""

import copy

import numpy as np

from arp.data import two_spirals
from arp.fixed import FixedConfig
from arp.model_io import deserialize_model, serialize_model
from arp.nn import build_model
from arp.replace import ReplacementConfig, train_replace, train_supervised
from arp.runtime import private_inference_memory

x, y = two_spirals(1024, noise=0.15, seed=3)
n = int(0.8 * len(x))
train, test_x = (x[:n], y[:n]), x[n:]

baseline = build_model("mlp", seed=0)
train_supervised(baseline, *train, epochs=150, lr=1e-3, batch_size=64, seed=0)
replaced, plan, _ = train_replace(
    copy.deepcopy(baseline), train,
    ReplacementConfig(relu_budget=64, epochs=40, seed=0),
)
print(f"replacement plan: {plan.relu_count} of 128 ReLU elements kept\n")

cfg = FixedConfig(64, 16)
blob = serialize_model(replaced, cfg, seed=0)
print(f"exported model file: {len(blob)} bytes (weights, mask, coefficients, provenance)")
model, cfg, _ = deserialize_model(blob)

inputs = test_x[:64]
report, _ = private_inference_memory(model, cfg, inputs, dealer_seed=7, input_seed=11)
print(f"\nprivate evaluation of {len(inputs)} inputs:")
print(f"  classification agreement with plaintext: {report.agreement:.4f}")
print(f"  max logit deviation: {report.max_dev_ulp:.2f} ULP "
      f"(declared budget {report.budget_ulp} ULP)")
print(f"  transcript: {report.transcript_hash[:16]}...\n")
print(f"{'phase':<12}{'bytes sent':>12}{'rounds':>8}{'opened words':>14}{'seconds':>10}")
for phase, row in [*report.phases.items(), ("total", report.totals)]:
    print(f"{phase:<12}{row['bytes_sent']:>12}{row['rounds']:>8}{row['opened_words']:>14}"
          f"{row['seconds']:>10.4f}")
print()

# the all-ReLU baseline pays double in the comparison phase
base_model, base_cfg, _ = deserialize_model(serialize_model(baseline, cfg, seed=0))
full_report, _ = private_inference_memory(base_model, base_cfg, inputs, 7, 11)
half_bytes = report.phases["comparison"]["bytes_sent"]
full_bytes = full_report.phases["comparison"]["bytes_sent"]
print(f"comparison-phase bytes, 50% plan vs all-ReLU: {half_bytes} vs {full_bytes} "
      f"({full_bytes / half_bytes:.2f}x)")
