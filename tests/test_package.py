"""README and the package agree on the package-level API, and the package's
errors survive a pickle round trip."""

import pickle
import re
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
    assert len(classes) == 20
    for cls in classes:
        err = cls(*args.get(cls, ("something went wrong",)))
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err)
        assert vars(back) == vars(err)
