"""README and the package agree on the package-level API, and the package's
errors survive a pickle round trip, and the package runs as a program only
when asked."""

import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import carriersim
from carriersim import errors

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_exactly_the_exports():
    text = README.read_text(encoding="utf-8")
    used = set(re.findall(r"\bcs\.(\w+)", text))
    assert used, "README's library example no longer uses `cs.`"
    assert used <= set(carriersim.__all__)
    assert [name for name in carriersim.__all__
            if not re.search(rf"`{re.escape(name)}`", text)] == []
    assert all(hasattr(carriersim, name) for name in carriersim.__all__)


def test_every_error_survives_a_pickle_round_trip():
    # a caller that fans queries out over multiprocessing gets the error
    # back through pickle, as the same type with the same message
    args = {errors.MalformedRowError: (Path("kpi.csv"), 3, "bad value"),
            errors.NoSamplesError: ("c1", 3)}
    classes = [c for c in vars(errors).values() if isinstance(c, type)
               and c.__module__ == errors.__name__]
    assert len(classes) == 21
    for cls in classes:
        err = cls(*args.get(cls, ("something went wrong",)))
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err)
        assert vars(back) == vars(err)


def _python(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_importing_the_main_module_runs_nothing():
    done = _python("-c", "import carriersim.__main__")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_running_the_package_still_runs_the_cli():
    done = _python("-m", "carriersim", "--version")
    assert done.returncode == 0, done.stderr
    assert carriersim.__version__ in done.stdout
