import pytest

from entcost.eof import _DecompositionSearch


@pytest.fixture
def anneals(monkeypatch) -> list:
    """The slot count of each ``_DecompositionSearch.anneal`` call, in order."""
    calls, anneal = [], _DecompositionSearch.anneal

    def counted(self, *args):
        calls.append(self.slots)
        return anneal(self, *args)
    monkeypatch.setattr(_DecompositionSearch, "anneal", counted)
    return calls
