"""Expert-fusion Transformer training toolkit.

Train small Transformers whose FFN layers hold N parallel experts fused at
the parameter level (static, learnable, or router/memory-bank weights),
then export a plain dense model with identical outputs.

Submodules are imported lazily so the CLI entry point can configure BLAS
threading before numpy loads.
"""

_SUBMODULES = {
    "tensor", "params", "moe", "fusion", "model", "optim", "tasks",
    "train", "checkpoint", "config", "verify", "bench", "cli",
}

_API = {
    "Tensor": "tensor",
    "no_grad": "tensor",
    "ShapeError": "tensor",
    "NonFiniteError": "tensor",
    "ModelSpec": "model",
    "Model": "model",
    "collapse_to_dense": "model",
    "expected_param_count": "model",
    "fuse": "fusion",
    "AdamW": "optim",
    "CosineSchedule": "optim",
    "TaskSpec": "tasks",
    "build_task": "tasks",
    "RunConfig": "config",
    "load_run_config": "config",
    "train_loop": "train",
}

__version__ = "0.1.0"
__all__ = sorted(_API) + sorted(_SUBMODULES)


def __getattr__(name):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _API:
        module = importlib.import_module(f".{_API[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
