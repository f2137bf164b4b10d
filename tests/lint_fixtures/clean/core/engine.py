"""R5 negative fixture: every counter the report reads is written."""


class Engine:
    def __init__(self, counters):
        self.counters = counters

    def execute_batch(self, ops):
        self.counters.add("ops_retired", len(ops))


def build_report(counters):
    return {"retired": counters.get("ops_retired")}
