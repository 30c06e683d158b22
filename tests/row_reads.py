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
