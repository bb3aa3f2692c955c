import numpy as np
import pytest
from hypothesis import settings

import fapolar as fp
from fapolar.lutdesign import design_lutset

# Property tests draw the same examples on every run, so Tier-1 is reproducible.
settings.register_profile("fapolar", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("fapolar")


@pytest.fixture(scope="session")
def nr_seq():
    return fp.nr_sequence()


@pytest.fixture(scope="session")
def code8():
    """The textbook N=8 rate-1/2 example with info set {3, 5, 6, 7}."""
    code = fp.construct(8, 3, 1)
    assert list(code.info_set) == [3, 5, 6, 7]
    return code


@pytest.fixture(scope="session")
def n64_sc_ib_w8():
    """(code, SC tree, IB LUT set at w=8 designed for 3.0 dB): the slowest design
    the suite makes, shared by the w=8 decode check and the pinned set bytes."""
    code = fp.construct(64, 28, 8)
    sc = fp.sc_tree(code)
    return code, sc, design_lutset(code, sc, "ib", 3.0, 8)


def random_payload(rng, code):
    return rng.integers(0, 2, code.payload_len, dtype=np.uint8)


def noisy_frame(code, sigma, seed):
    """(payload, tx codeword, channel outputs) for one reproducible frame."""
    rng = np.random.default_rng(seed)
    payload = random_payload(rng, code)
    x = fp.encode(code, fp.assemble_u(code, payload))
    y = (1.0 - 2.0 * x.astype(np.float64)) + sigma * rng.standard_normal(code.block_len)
    return payload, x, y


def refuse_walk(monkeypatch):
    """Give every ListEngine built from here on a first step that raises
    AssertionError("the walk started"): a check that must come before the
    walk then fails the test if any step runs."""
    from fapolar.listdec import ListEngine

    def started(engine):
        raise AssertionError("the walk started")

    build = ListEngine.__init__

    def build_guarded(engine, *args, **kwargs):
        build(engine, *args, **kwargs)
        engine.steps = ((started, ()),) + engine.steps

    monkeypatch.setattr(ListEngine, "__init__", build_guarded)
