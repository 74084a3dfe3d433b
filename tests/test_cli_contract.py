"""Exit-code contract of the command line under config edits.

Each base config below is valid and small. An edit deletes one key or
replaces one node (a user block, a list or a list item included) by a
value from POOL; `cli.main` then runs in-process in a scratch working
directory. Whatever the edit, the command must exit 0, 2 (config error)
or 3 (infeasible scenario) without raising. A number replaced by
something that is not a finite JSON number must exit 2.

A second test replaces each numeric leaf of each base, one at a time, by
each extreme magnitude of EXTREMES (1e308, 2**63, 1e-320 and the like),
with RuntimeWarning raised as an error; such an edit too must exit 0, 2
or 3 without raising, within EDIT_SECONDS. The emitted files are not
checked for strict JSON.
"""

import contextlib
import copy
import io
import json
import math
import os
import signal
import tempfile
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from burstgic import cli

COMMON = {"seed": 3, "format": "csv", "out": "out"}
BASES = {
    "buffers": ("buffers", dict(
        COMMON, scenario="buffers", user={"k": 2, "q": 0.3},
        n_values=[40], N=2, theta=1.3, delta=0.5, trials=5, nprime=3)),
    "design": ("design", dict(
        COMMON, scenario="design",
        user1={"k": 2, "q": 0.4, "P": 100.0, "a": 0.5},
        user2={"k": 2, "q": 0.3, "P": 100.0, "a": 0.5},
        R1_over_lambda=0.7, R2_over_lambda=0.1, d_grid=[0.5, 2.5, 3])),
    "grid": ("region", dict(
        COMMON, scenario="grid",
        user1={"k": 2, "q": 0.3, "P_db": 20, "a": 0.5},
        user2={"k": 2, "q": 0.3, "P_db": 20, "a": 0.5},
        N1=2, N2=2, theta1=1.0, theta2=1.0, alpha=0.5, m_grid=2,
        resolution=0.5)),
    "symmetric": ("region", dict(
        COMMON, scenario="symmetric", N=2, theta=1.0, k=2, q=0.3, a=0.5,
        P_db=20, alpha=0.5, curve_points=4)),
    "detect": ("detect", dict(
        COMMON, scenario="detect", n_values=[16, 32], nprime_values=[4, 6],
        gamma1_db=20, gamma2_db=20, a1=0.1, a2=0.1, eps=0.48, M=4,
        trials=2)),
}

POOL = [True, False, None, "7", "x", [], [1], {}, math.nan, math.inf,
        -math.inf, 0, -1, 0.5, 2]
DELETE = "<delete>"
# 1 - 2**-40 as R*_over_lambda gives design about 1e9 candidate burst counts
EXTREMES = [1e308, -1e308, 1e300, 1e-320, 2**63, 10**30, -0.0, 1e-12,
            1 - 2**-40]

#: Seconds one extreme edit may run before it fails as a hang.
EDIT_SECONDS = 10


class EditTimedOut(Exception):
    """An edit ran past EDIT_SECONDS."""


@contextlib.contextmanager
def _time_bound(seconds):
    """Raise EditTimedOut in the block once seconds of real time pass."""
    def expire(signum, frame):
        raise EditTimedOut(f"edit ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _not_a_number(v):
    """Not a finite JSON number; null is left out, it reads as absent."""
    return v is not None and not (_is_number(v) and math.isfinite(v))


def _nodes(obj, path=()):
    """(path, value) of every dict entry and list item below obj."""
    for key, val in (obj.items() if isinstance(obj, dict)
                     else enumerate(obj)):
        yield path + (key,), val
        if isinstance(val, (dict, list)):
            yield from _nodes(val, path + (key,))


NODES = {name: list(_nodes(cfg)) for name, (_, cfg) in BASES.items()}


def _choices(path):
    """Edits of one node: delete it (dict entries only) or replace it."""
    return ([DELETE] if isinstance(path[-1], str) else []) + POOL


def _edited(cfg, edits):
    cfg = copy.deepcopy(cfg)
    for path, new in edits:
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if new is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(new)
    return cfg


def _run(command, cfg):
    """cli.main on cfg, in a fresh working directory, output silenced."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("config.json", "w") as fh:
                fh.write(json.dumps(cfg))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return cli.main([command, "--config", "config.json"])
        finally:
            os.chdir(cwd)


def _must_fail(edits, nodes):
    """Whether an edit puts a non-number where the base has a number."""
    return any(_is_number(nodes[path]) and new is not DELETE
               and _not_a_number(new) for path, new in edits)


@pytest.mark.parametrize("name", sorted(BASES))
def test_single_edits_keep_exit_contract(name):
    command, base = BASES[name]
    assert _run(command, base) == 0
    nodes = dict(NODES[name])
    escaped, wrong_code, not_rejected = [], [], []
    for path in nodes:
        for new in _choices(path):
            edit = [(path, new)]
            try:
                code = _run(command, _edited(base, edit))
            except Exception as e:  # listed, so one run shows every escape
                escaped.append((path, new, repr(e)))
                continue
            if code not in (0, 2, 3):
                wrong_code.append((path, new, code))
            elif _must_fail(edit, nodes) and code != 2:
                not_rejected.append((path, new, code))
    assert not escaped, escaped
    assert not wrong_code, wrong_code
    assert not not_rejected, not_rejected


@pytest.mark.parametrize("name", sorted(BASES))
def test_extreme_magnitudes_keep_exit_contract(name):
    command, base = BASES[name]
    escaped, wrong_code, timed_out = [], [], []
    for path, val in NODES[name]:
        if not _is_number(val):
            continue
        for new in EXTREMES:
            try:
                with _time_bound(EDIT_SECONDS), warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = _run(command, _edited(base, [(path, new)]))
            except EditTimedOut:
                timed_out.append((path, new))
                continue
            except Exception as e:  # listed, so one run shows every escape
                escaped.append((path, new, repr(e)))
                continue
            if code not in (0, 2, 3):
                wrong_code.append((path, new, code))
    assert not timed_out, timed_out
    assert not escaped, escaped
    assert not wrong_code, wrong_code


@st.composite
def _multi_edit(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    paths = draw(st.lists(st.sampled_from([p for p, _ in NODES[name]]),
                          min_size=2, max_size=3, unique=True))
    # no edit may sit inside another edit's node
    assume(not any(a != b and b[:len(a)] == a for a in paths for b in paths))
    edits = [(path, draw(st.sampled_from(_choices(path)))) for path in paths]
    return name, edits


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_multi_edit())
def test_multiple_edits_keep_exit_contract(case):
    name, edits = case
    command, base = BASES[name]
    code = _run(command, _edited(base, edits))
    assert code in (0, 2, 3)
    if _must_fail(edits, dict(NODES[name])):
        assert code == 2
