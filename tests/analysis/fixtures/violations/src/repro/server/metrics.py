"""Seeded LOCK-GUARD(loop) violation."""


class Metrics:
    def __init__(self) -> None:
        self.requests_total = 0  # guarded-by: loop

    def defer(self, executor) -> None:
        # LOCK-GUARD: a loop-confined counter captured into a callable
        # that may run on an executor thread.
        executor.submit(lambda: self.requests_total + 1)

    def snapshot(self) -> dict:
        return {"requests_total": self.requests_total}
