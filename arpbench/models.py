"""Build the benchmark's models with the public trainer and cache them.

The three served models come from one fixed recipe (model seed 0, data
seed 3, the CLI's default training settings), so every checkout trains the
same models from its own source.  Training runs in a child process so that
the measuring process's peak RSS never includes it; the result is cached
under `.bench_build/arpbench/` keyed by a hash of `src/arp` and the recipe.

Run directly to (re)build: `python3 arpbench/models.py`.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "arpbench"

MODEL_SEED = 0
DATA_SEED = 3
PRETRAIN_EPOCHS = 150
REPLACE_EPOCHS = 40
BATCH_SIZE = 64

# name -> (arch, dataset, replacement budget or None for "pretrained only")
RECIPES = {
    "cnn-relu": ("smallcnn", "toy-images", None),
    "cnn-plan": ("smallcnn", "toy-images", 200),
    "mlp-plan": ("mlp", "two-spiral", 64),
}


def dataset(name: str, n: int, seed: int):
    from arp import data

    if name == "toy-images":
        return data.toy_images(n, seed=seed)
    return data.two_spirals(n, seed=seed)


def split(x, y):
    """The CLI's 80/20 train/test split."""
    n = int(0.8 * len(x))
    return (x[:n], y[:n]), (x[n:], y[n:])


def pretrain(arch: str, xtr, ytr, num_classes: int, image_hw: int = 8):
    from arp.nn import build_model
    from arp.replace import train_supervised

    model = build_model(arch, MODEL_SEED, num_classes, image_hw=image_hw)
    train_supervised(model, xtr, ytr, epochs=PRETRAIN_EPOCHS, lr=1e-3,
                     batch_size=BATCH_SIZE, seed=MODEL_SEED)
    return model


def replace(model, train, test, budget: int):
    from arp.replace import ReplacementConfig, train_replace

    cfg = ReplacementConfig(relu_budget=budget, epochs=REPLACE_EPOCHS,
                            batch_size=BATCH_SIZE, seed=MODEL_SEED)
    return train_replace(model, train, cfg, eval_data=test)


def cache_dir() -> Path:
    h = hashlib.sha256(json.dumps([RECIPES, MODEL_SEED, DATA_SEED, PRETRAIN_EPOCHS,
                                   REPLACE_EPOCHS, BATCH_SIZE]).encode())
    for path in sorted((SRC / "arp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return WORK / f"models-{h.hexdigest()[:16]}"


def _train_all(out: Path) -> None:
    import copy
    import shutil
    import tempfile

    from arp.fixed import FixedConfig
    from arp.model_io import save_model
    from arp.replace import evaluate

    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=out.name + ".", dir=out.parent))
    info = {}
    pretrained = {}
    for name, (arch, data_name, budget) in RECIPES.items():
        x, y = dataset(data_name, 1024, DATA_SEED)
        train, test = split(x, y)
        num_classes = int(y.max()) + 1
        if arch not in pretrained:
            pretrained[arch] = pretrain(arch, *train, num_classes)
        model = copy.deepcopy(pretrained[arch])
        kept = sum(int(a.indicator.m.sum()) for a in model.hybrid_layers())
        if budget is not None:
            model, plan, _ = replace(model, train, test, budget)
            kept = plan.relu_count
        save_model(tmp / f"{name}.arpm", model, FixedConfig(64, 16), MODEL_SEED)
        info[name] = {"arch": arch, "budget": budget, "kept_relus": kept,
                      "test_accuracy": evaluate(model, *test)}
    (tmp / "info.json").write_text(json.dumps(info, indent=1))
    try:
        tmp.rename(out)
    except OSError:  # a concurrent build finished first; its models are identical
        shutil.rmtree(tmp)


def ensure_models() -> Path:
    """Return the cache directory, training the models in a child process if absent."""
    out = cache_dir()
    if not (out / "info.json").exists():
        subprocess.run([sys.executable, str(Path(__file__).resolve())], check=True, timeout=850)
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    target = cache_dir()
    if not (target / "info.json").exists():
        _train_all(target)
    print(json.dumps(json.loads((target / "info.json").read_text())))
