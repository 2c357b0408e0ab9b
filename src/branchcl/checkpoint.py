"""Model checkpoints: a JSON manifest plus one flat binary file per matrix.

Arrays are written row-major as little-endian 64-bit floats with no
header, one per name of ``ContinualModel.all_named_matrices``; the
manifest records each matrix's shape and trainability, and what builds
the model object: kind, seed, dims, hyperparams and the tasks whose
routers it holds. A frozen branch, router or key is a matrix saved with
``trainable: false``; nothing else records it.

Loading rebuilds that model (`build_model`, then ``start_task`` for each
router task in order) and overwrites each named matrix with the saved
bytes and flag, so the loaded model has the saved one's matrix names and
rng states: the next task it starts draws what the saved model would
have drawn. A manifest whose names or shapes differ from the rebuilt
model's is rejected, as is a kind, seed, router task list or tensor entry
of the wrong type, a manifest that is a symbolic link, or a tensor whose
file is not the one the saver names after it, is a symbolic link or holds
a NaN or an infinity. A saved flag may turn a matrix off (a frozen branch,
a finished router or key) but never on: a tensor marked trainable that the
rebuilt model holds frozen, such as a backbone or the head, is rejected
too. The loader does not read the manifest's key task ids, nor the
per-layer freeze flags of older manifests: the tensor names and flags say
the same.

The manifest is written last and atomically (`write_atomic`), so a save
that stops part way leaves the previous manifest whole.
"""

from __future__ import annotations

import dataclasses
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .adapters import LAYERS, AdapterHyperparams
from .errors import ContractError, ParameterError
from .model import ContinualModel, ModelConfig, build_model

FORMAT = "branchcl-checkpoint-v1"
_MANIFEST_KEYS = ("kind", "seed", "model", "hyperparams", "router_tasks", "tensors")


def checkpoint_dir(run_dir: str | Path, seed: int, method: str, task_id: int) -> Path:
    """Where a run keeps the checkpoint of one method after one task."""
    return Path(run_dir) / "checkpoints" / f"seed{seed}" / method / f"task{task_id}"


def _tensor_filename(name: str) -> str:
    return name.replace("/", "_") + ".f64"


@contextmanager
def open_atomic(path: Path) -> Iterator[TextIO]:
    """A text file, opened for writing, that replaces path when the block
    ends: it is ``<name>.tmp``, renamed over path by ``os.replace``. If the
    block or the rename fails, path keeps its old bytes, and no ``.tmp``
    file is left behind either way."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_atomic(path: Path, text: str) -> None:
    """Write text to path through `open_atomic`."""
    with open_atomic(path) as fh:
        fh.write(text)


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
    write_atomic(directory / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return directory


# each key of a manifest's tensor entry: the type its value must have.
# Here a type is matched exactly: bool is an int subclass, so it is refused
# where an int is wanted.
_TENSOR_KEYS = {
    "file": (str, "a string"),
    "rows": (int, "an integer"),
    "cols": (int, "an integer"),
    "trainable": (bool, "true or false"),
}


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _check_tensor_spec(manifest_path: Path, name: str, spec) -> None:
    if not isinstance(spec, dict):
        raise ContractError(f"{manifest_path}: tensor {name}: entry is not a JSON object")
    for key, (kind, what) in _TENSOR_KEYS.items():
        value = spec.get(key)
        if type(value) is not kind:
            raise ContractError(
                f"{manifest_path}: tensor {name}: {key!r} must be {what}, got {value!r}"
            )
    # the saver names every file after its tensor; any other name could
    # reach a file outside the checkpoint directory
    if spec["file"] != _tensor_filename(name):
        raise ContractError(
            f"{manifest_path}: tensor {name}: 'file' must be "
            f"{_tensor_filename(name)!r}, got {spec['file']!r}"
        )
    # nor may a symbolic link in the directory point the read elsewhere
    if (manifest_path.parent / spec["file"]).is_symlink():
        raise ContractError(f"{manifest_path}: tensor {name}: {spec['file']} is a symbolic link")


def _read_tensor(directory: Path, spec: dict, name: str, shape: tuple[int, int]) -> np.ndarray:
    if (spec["rows"], spec["cols"]) != shape:
        raise ContractError(
            f"tensor {name}: manifest says {spec['rows']}x{spec['cols']}, "
            f"the model it describes has {shape[0]}x{shape[1]}"
        )
    path = directory / spec["file"]
    raw = path.read_bytes()
    expected = 8 * spec["rows"] * spec["cols"]
    if len(raw) != expected:
        raise ContractError(
            f"tensor {name}: {path} holds {len(raw)} bytes, manifest says "
            f"{spec['rows']}x{spec['cols']} float64 = {expected} bytes"
        )
    data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(data).all():
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise ContractError(f"tensor {name}: {path} holds {data[i, j]} at [{i}, {j}]")
    return data


def load_model(directory: str | Path) -> ContinualModel:
    """Build the model the manifest describes, replay its task starts, then
    overwrite every named matrix with the saved values and flags."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if manifest_path.is_symlink():
        raise ContractError(f"{manifest_path} is a symbolic link")
    if not manifest_path.is_file():
        raise ContractError(f"no manifest.json in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as err:
        raise ContractError(f"{manifest_path} is not valid JSON: {err}") from err
    if not isinstance(manifest, dict):
        raise ContractError(f"{manifest_path} is not a JSON object")
    if manifest.get("format") != FORMAT:
        raise ContractError(f"unsupported checkpoint format: {manifest.get('format')!r}")
    for key in _MANIFEST_KEYS:
        if key not in manifest:
            raise ContractError(f"{manifest_path}: manifest has no {key!r}")
    kind = manifest["kind"]
    if not isinstance(kind, str) or kind not in LAYERS:
        raise ContractError(
            f"{manifest_path}: 'kind' must be one of {sorted(LAYERS)}, got {kind!r}"
        )
    seed = manifest["seed"]
    if not _is_count(seed):
        raise ContractError(f"{manifest_path}: 'seed' must be a non-negative int, got {seed!r}")
    router_tasks = manifest["router_tasks"]
    if (
        not isinstance(router_tasks, list)
        or not all(_is_count(t) for t in router_tasks)
        or len(set(router_tasks)) != len(router_tasks)
    ):
        raise ContractError(
            f"{manifest_path}: 'router_tasks' must be a list of distinct non-negative ints, "
            f"got {router_tasks!r}"
        )

    def section(key: str, cls):
        try:
            return cls(**manifest[key])
        except (TypeError, ParameterError) as err:
            raise ContractError(f"{manifest_path}: bad {key!r}: {err}") from err

    model = build_model(
        kind, section("model", ModelConfig), section("hyperparams", AdapterHyperparams),
        seed,
    )
    for t in router_tasks:
        model.start_task(t)
    tensors = manifest["tensors"]
    if not isinstance(tensors, dict):
        raise ContractError(f"{manifest_path}: 'tensors' is not a JSON object")
    named = model.all_named_matrices()
    unexpected = sorted(set(tensors) - {name for name, _ in named})
    missing = [name for name, _ in named if name not in tensors]
    if unexpected or missing:
        raise ContractError(
            f"{manifest_path}: tensors do not match the {kind} model it describes "
            f"(missing {missing}, unexpected {unexpected})"
        )
    for name, m in named:
        spec = tensors[name]
        _check_tensor_spec(manifest_path, name, spec)
        if spec["trainable"] and not m.trainable:
            raise ContractError(
                f"{manifest_path}: tensor {name} is marked trainable, but the {kind} "
                f"model it describes holds it frozen"
            )
        m.data = _read_tensor(directory, spec, name, m.shape)
        m.trainable = spec["trainable"]
    return model
