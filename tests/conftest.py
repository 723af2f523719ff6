import os
import sys
from pathlib import Path

# LAPACK's LU gives different bits on one thread and on several at larger
# |S| (the 128-state golden case), so the suite pins BLAS to one thread, as
# the benchmark does. The pin only takes effect before numpy loads BLAS.
if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin BLAS to one thread"
    )
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# The tree's src goes last on the import path, so a package named by
# PYTHONPATH (another checkout's src, say) is the one under test.
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from hypothesis import HealthCheck, settings  # noqa: E402

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


def pytest_report_header(config):
    import vfpolytope

    return f"vfpolytope under test: {vfpolytope.__file__}"
