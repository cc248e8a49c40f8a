"""The benchmark's tracer (bench/tracing.py) wraps koszulab functions and
methods that it names as strings.  Each must still exist, or a traced
benchmark run breaks when a rename or deletion lands."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()

    def module(name):
        return importlib.import_module(f"koszulab.{name}")

    missing = [f"{m}.{f}" for m, f, _ in tracing.FUNCTIONS
               if not callable(getattr(module(m), f, None))]
    missing += [f"{m}.{c}.{meth}" for m, c, meth, _, _ in tracing.METHODS
                if not callable(vars(getattr(module(m), c, object)).get(meth))]
    assert len(tracing.FUNCTIONS) > 10 and tracing.METHODS
    assert not missing
