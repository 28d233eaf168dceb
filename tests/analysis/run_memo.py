"""Reset of the experiment drivers' run memo, for tests that must
simulate afresh."""

from repro.analysis import experiments


def clear_cache() -> None:
    """Forget every memoized run, so the next driver call simulates."""
    experiments._run_cache.clear()
