import copy
import glob
import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levydetect.cli import _COMMANDS, main
from levydetect.config import DEFAULTS, FIELDS, ExperimentConfig
from levydetect.errors import SpecValidationError
from levydetect.families import LevySpec

EXAMPLES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                         "examples_config", "*.json")))

# Small enough that every subcommand runs in well under a second.
BASE = {
    "model": {"pre": {"family": "brownian", "sigma": 1.0, "drift": 0.0},
              "post": {"family": "brownian", "sigma": 1.0, "drift": 1.0}},
    "simulation": {"n_rep": 8, "horizon": 2.0},
    "detector": {"gamma": 2.0},
    "experiment": {"n_rep_calibrate": 8, "base_delta": 0.08, "dyadic_levels": 2},
}

PATHS = [(block, key) for block, rows in FIELDS.items() for key in rows] + [
    ("model", "pre", "sigma"), ("model", "post", "drift"), ("model", "pre", "family"),
    ("model", "post", "jumps")]
BLOCKS = [(), ("model",), ("model", "pre"), *((block,) for block in FIELDS)]

# Bounded values only: no draw can ask for a large allocation, a long run
# or more than 8 threads. Numbers are drawn most often, so that many
# examples get past the config checks and run.
NUMBERS = st.one_of(st.integers(-2, 8), st.sampled_from(
    [-1.0, 0.0, 1e-3, 0.05, 0.1, 1.0, 7.5, math.nan, math.inf, -math.inf]))
SCALARS = st.one_of(
    st.none(), st.booleans(), NUMBERS, st.text(max_size=3),
    st.sampled_from(["cusum_grid", "shiryaev_roberts", "out_of_control", "gaussian",
                     "compound_poisson", "gamma"]))
LISTS = st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=2)), max_size=3)
OBJECTS = st.dictionaries(st.text(max_size=3), SCALARS, max_size=2)
VALUES = st.sampled_from([NUMBERS] * 6 + [SCALARS] * 2 + [LISTS, OBJECTS]).flatmap(
    lambda strategy: strategy)
REPLACE = st.lists(st.tuples(st.sampled_from(PATHS), VALUES), min_size=1, max_size=2)
ADD_KEY = st.tuples(st.sampled_from(BLOCKS), st.text(max_size=4), VALUES).map(
    lambda t: [(t[0] + (t[1],), t[2])])
EDITS = st.one_of(REPLACE, ADD_KEY)


def _edited(edits) -> dict:
    config = copy.deepcopy(BASE)
    for (*parents, last), value in edits:
        node = config
        for name in parents:
            node = node.setdefault(name, {})
        node[last] = value
    return config


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(edits=EDITS, sub=st.sampled_from(sorted(_COMMANDS)))
def test_fuzzed_config_never_escapes_the_exit_codes(edits, sub):
    """One or two fields replaced, or one key added anywhere: every
    subcommand ends with a documented exit code, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(_edited(edits), fh)
        code = main([sub, "--config", path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("sub", sorted(_COMMANDS))
def test_base_config_runs_every_subcommand(tmp_path, sub):
    """The fuzz test's base is a working config, so its edits are what fail."""
    path = tmp_path / "base.json"
    path.write_text(json.dumps(BASE))
    assert main([sub, "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_configs_load(path):
    cfg = ExperimentConfig.load(path)
    cfg.change_model()


def test_every_default_passes_its_own_row():
    for block, rows in FIELDS.items():
        for key, ((_, check), default) in rows.items():
            assert check(default) and DEFAULTS[block][key] == default, f"{block}.{key}"


@pytest.mark.parametrize("data,message", [
    (dict(BASE, simulaton={}), "unknown key 'simulaton'"),
    (dict(BASE, output={"dump_lr": True}), "unknown key 'output.dump_lr'"),
    (dict(BASE, detector={"gamma": 0}), "detector.gamma must be null or a finite number > 0"),
    (dict(BASE, experiment={"tau": -1.0}), "experiment.tau must be null or a finite number >= 0"),
    (dict(BASE, simulation={"horizon": 10 ** 400}), "simulation.horizon must be a finite number"),
    (5, "config needs a 'model' block"),
])
def test_rejected_config_names_its_field(data, message):
    with pytest.raises(SpecValidationError, match=re.escape(message)):
        ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("fixture", [
    "brownian_model", "poisson_model", "gaussian_shift_model", "jump_diffusion_model",
    "gamma_model", "gamma_model_mild", "exponential_model", "two_sided_model"])
def test_spec_round_trips_through_its_dict(request, fixture):
    model = request.getfixturevalue(fixture)
    for spec in (model.pre, model.post):
        assert LevySpec.from_dict(spec.to_dict()) == spec
