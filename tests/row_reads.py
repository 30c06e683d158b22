"""An adjacency tuple that logs the rows a search reads, shared by the
search tests."""


class Reads(tuple):
    """An adjacency tuple that logs every row index read from it."""

    def __new__(cls, rows, log):
        self = super().__new__(cls, rows)
        self.log = log
        return self

    def __getitem__(self, i):
        self.log.append(i)
        return super().__getitem__(i)


class ReadBudget:
    """A log for ``Reads`` that keeps only the number of reads and raises
    AssertionError at the first read past ``budget``, so a search that
    stalls fails its test instead of running on."""

    def __init__(self, budget: int):
        self.budget = budget
        self.reads = 0

    def append(self, i: int) -> None:
        self.reads += 1
        if self.reads > self.budget:
            raise AssertionError(f"the search read more than {self.budget} target rows")
