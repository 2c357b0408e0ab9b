"""Model checkpoints: a JSON manifest plus one flat binary file per matrix.

Arrays are written row-major as little-endian 64-bit floats with no
header; the manifest records each matrix's shape and trainability, and
everything else needed to rebuild the model object (kind, dims,
hyperparams, router and key task ids). A frozen branch, router or key is
a matrix saved with ``trainable: false``; nothing else records it. Older
manifests also list per-layer freeze flags; the loader ignores them, as
the tensors' flags say the same.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .adapters import LAYERS, AdapterHyperparams
from .errors import ContractError
from .model import ContinualModel, ModelConfig
from .selector import KeyStore, TaskKeys
from .tensor import Matrix

FORMAT = "branchcl-checkpoint-v1"


def checkpoint_dir(run_dir: str | Path, seed: int, method: str, task_id: int) -> Path:
    """Where a run keeps the checkpoint of one method after one task."""
    return Path(run_dir) / "checkpoints" / f"seed{seed}" / method / f"task{task_id}"


def _tensor_filename(name: str) -> str:
    return name.replace("/", "_") + ".f64"


def save_model(directory: str | Path, model: ContinualModel) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tensors = {}
    for name, m in model.all_named_matrices():
        fname = _tensor_filename(name)
        (directory / fname).write_bytes(np.ascontiguousarray(m.data, dtype="<f8").tobytes())
        tensors[name] = {
            "file": fname,
            "rows": int(m.rows),
            "cols": int(m.cols),
            "trainable": bool(m.trainable),
        }
    manifest = {
        "format": FORMAT,
        "kind": model.kind,
        "seed": model.seed,
        "model": dataclasses.asdict(model.cfg),
        "hyperparams": dataclasses.asdict(model.hp),
        "router_tasks": sorted(model.layers[0].routers),
        "key_tasks": [k.task_id for k in model.keys.ordered()],
        "tensors": tensors,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return directory


def _read_tensor(directory: Path, spec: dict, name: str) -> Matrix:
    path = directory / spec["file"]
    raw = path.read_bytes()
    expected = 8 * spec["rows"] * spec["cols"]
    if len(raw) != expected:
        raise ContractError(
            f"tensor {name}: {path} holds {len(raw)} bytes, manifest says "
            f"{spec['rows']}x{spec['cols']} float64 = {expected} bytes"
        )
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return Matrix(arr.reshape(spec["rows"], spec["cols"]), trainable=spec["trainable"], name=name)


def load_model(directory: str | Path) -> ContinualModel:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise ContractError(f"no manifest.json in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as err:
        raise ContractError(f"{manifest_path} is not valid JSON: {err}") from err
    if manifest.get("format") != FORMAT:
        raise ContractError(f"unsupported checkpoint format: {manifest.get('format')!r}")
    cfg = ModelConfig(**manifest["model"])
    hp = AdapterHyperparams(**manifest["hyperparams"])
    kind = manifest["kind"]
    layer_cls = LAYERS.get(kind)
    if layer_cls is None:
        raise ContractError(f"unknown model kind in manifest: {kind!r}")
    tensors = manifest["tensors"]

    def tensor(name: str) -> Matrix:
        if name not in tensors:
            raise ContractError(f"manifest missing tensor {name}")
        return _read_tensor(directory, tensors[name], name)

    layers = [
        layer_cls.from_named(
            hp, lambda name, i=i: tensor(f"layer{i}.{name}"), manifest["router_tasks"]
        )
        for i in range(cfg.layers)
    ]
    model = ContinualModel(kind, cfg, hp, layers, tensor("head"), manifest["seed"])
    model.keys = KeyStore(
        TaskKeys(t, tensor(f"keys.task{t}.img"), tensor(f"keys.task{t}.txt"))
        for t in manifest["key_tasks"]
    )
    return model
