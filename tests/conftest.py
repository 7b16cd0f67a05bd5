"""Shared fixtures. Ray is initialised ONCE per pytest session."""

import contextlib
import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

REFERENCE_ROOT = Path("/root/reference")
TESTDATA = Path("/root/testdata")


@contextlib.contextmanager
def forced(on: bool = True):
    """Run the block in the forced mode (``GRAFT_FORCE_PARTITIONED=1``,
    every ``plan.broadcast`` decision takes the exchange) or, with
    ``on=False``, in the normal mode."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GRAFT_FORCE_PARTITIONED", "1" if on else "0")
        yield


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    yield ray
    ray.shutdown()


@pytest.fixture(scope="module")
def executions(ray_session):
    """A callable that runs ``fn()`` and returns how many Ray Data
    executions it started, counted with Ray Data's execution callback
    (the hook ``perfbench/ledger.watch_executions`` uses)."""
    from ray.data import DataContext
    from ray.data._internal.execution.execution_callback import (
        ExecutionCallback,
        add_execution_callback,
        remove_execution_callback,
    )

    started = []

    class Count(ExecutionCallback):
        def before_execution_starts(self, executor):
            started.append(1)

        # every Dataset deep-copies the data context, hooks included:
        # the copies must count here
        def __deepcopy__(self, memo):
            return self

        def __reduce__(self):
            return (ExecutionCallback, ())

    ctx = DataContext.get_current()
    hook = Count()
    add_execution_callback(hook, ctx)

    def run(fn) -> int:
        started.clear()
        fn()
        return len(started)

    yield run
    remove_execution_callback(hook, ctx)


def _load_module_from(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="session")
def reference_kernel():
    """The reference's pure-Python text functions, imported directly
    (no service deps). Skips when /root/reference is absent — the
    committed golden fixtures still pin byte-identity in that case."""
    if not REFERENCE_ROOT.exists():
        pytest.skip("reference repo not available")
    extractor_dir = REFERENCE_ROOT / "extractor" / "fulltext"
    sys.path.insert(0, str(extractor_dir))
    try:
        fixunicode = _load_module_from(
            extractor_dir / "fixunicode.py", "_ref_fixunicode"
        )
        ref_fulltext = _load_module_from(
            extractor_dir / "fulltext.py", "_ref_fulltext"
        )
        ref_psv = _load_module_from(
            REFERENCE_ROOT / "fulltext" / "process" / "psv.py", "_ref_psv"
        )
    finally:
        sys.path.remove(str(extractor_dir))
    return {
        "fix_unicode": fixunicode.fix_unicode,
        "average_word_length": ref_fulltext.average_word_length,
        "normalize_text_psv": ref_psv.normalize_text_psv,
        "process_text": ref_psv.process_text,
        "tidy": ref_psv.tidy_txt_from_pdf,
    }
