from __future__ import annotations

import faulthandler
import itertools
import os
import sys
from pathlib import Path

import pytest

from codegraph.fqlinalg import Subspace, parse_subspace

FIXTURES = Path(__file__).parent / "fixtures"

# the most one test's set-up, call and teardown may take together; the
# slowest takes about 6 s
DEADLINE_S = 120
TERMINAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the terminal's stderr, which a test's captured output
    # does not reach
    config.stash[TERMINAL_STDERR] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[TERMINAL_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Turn a hung test into a failed run: past DEADLINE_S, faulthandler's
    watchdog thread writes every thread's traceback to the terminal and
    ends the process with status 1.  It sends no signal, so SIGALRM and
    the interval timers stay free for the code under test."""
    faulthandler.dump_traceback_later(DEADLINE_S, exit=True, file=item.config.stash[TERMINAL_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def load_sections(name: str) -> dict[str, list[Subspace]]:
    """Parse a fixture of digit-matrix blocks grouped under [section] headers."""
    sections: dict[str, list[Subspace]] = {}
    current: str | None = None
    block: list[str] = []

    def flush() -> None:
        if current is not None and block:
            sections[current].append(parse_subspace("\n".join(block)))
        block.clear()

    for line in (FIXTURES / name).read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            flush()
            current = line.strip("[]")
            sections[current] = []
        elif line:
            block.append(line)
        else:
            flush()
    flush()
    return sections


@pytest.fixture(scope="session")
def example1_classes() -> dict[str, list[Subspace]]:
    return load_sections("example1_classes.txt")


@pytest.fixture(scope="session")
def example2_complements() -> dict[str, list[Subspace]]:
    return load_sections("example2_complements.txt")


@pytest.fixture(scope="session")
def ctx4():
    """The n=4 theorem context, built once per session."""
    from codegraph.verify import build_context

    return build_context(4)


@pytest.fixture(scope="session")
def certificate4_with_dump(ctx4, tmp_path_factory):
    """The exhaustive n=4 certificate and the path of its witness dump,
    computed in one run and shared."""
    from codegraph.verify import certify_theorem

    dump = tmp_path_factory.mktemp("certificate4") / "witnesses.txt"
    return certify_theorem(4, witness_dump=str(dump)), dump


@pytest.fixture(scope="session")
def certificate4(certificate4_with_dump):
    """The exhaustive n=4 certificate, computed once and shared."""
    return certificate4_with_dump[0]


@pytest.fixture
def bound_stream(monkeypatch):
    """Cut the exhaustive embedding stream to its first ``size`` maps, so
    a certification run ends after a fixed amount of work on any host."""
    from codegraph import verify

    real = verify._embeddings

    def bound(size: int) -> None:
        monkeypatch.setattr(verify, "_embeddings", lambda ctx, order: itertools.islice(real(ctx, order), size))

    return bound


class PlanBuilds:
    """Every plan made, and the number of searches started."""

    def __init__(self) -> None:
        self.plans: list = []
        self.searches = 0


@pytest.fixture
def plan_builds(monkeypatch):
    """Record the plans made and count the searches started through
    ``autgroup`` and ``verify``."""
    from codegraph import autgroup, verify
    from codegraph.grassmann import SearchPlan

    record = PlanBuilds()
    real_post_init = SearchPlan.__post_init__

    def post_init(plan):
        real_post_init(plan)
        record.plans.append(plan)

    monkeypatch.setattr(SearchPlan, "__post_init__", post_init)
    for module in (autgroup, verify):

        def search(*args, real_search=module.backtrack):
            record.searches += 1
            return real_search(*args)

        monkeypatch.setattr(module, "backtrack", search)
    return record


@pytest.fixture(scope="session")
def n4_stream_sample(ctx4):
    """Every 40th image tuple of the exhaustive n=4 embedding stream, in
    search order, enumerated once per session."""
    from codegraph import verify

    return tuple(itertools.islice(verify._embeddings(ctx4, verify._order_for(ctx4, 0)), 0, None, 40))
