"""README's library example runs as written."""
import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_library_example_runs():
    # a change to a documented signature breaks this test, not only the docs
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    model, tau = scope["model"], scope["tau"]
    assert model.stage == "gains"
    assert tau.shape == scope["q"].shape and np.all(np.isfinite(tau))
    assert np.allclose(sum(scope[k] for k in ("inertia", "coriolis",
                                              "friction", "gravity")),
                       tau, rtol=0, atol=1e-9)
