"""Transactions: table-level two-phase locking with undo-based rollback.

Good enough for the host computer's application programs: a
:class:`Transaction` acquires shared/exclusive table locks (strict 2PL
— all locks held to commit/abort), records before-images, and restores
them on rollback.  Deadlocks are broken by wound-wait on lock-request
timeouts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from ..sim import Event, Simulator
from .engine import Database, IntegrityError, SchemaError, Table
from .query import Executor, QueryError, QueryResult
from .sql import CreateIndex, CreateTable, Delete, Insert, Select, Update, parse

__all__ = ["TransactionError", "DeadlockError", "Transaction",
           "TransactionManager"]


class TransactionError(Exception):
    """Misuse: operating on a finished transaction, etc."""


class DeadlockError(Exception):
    """Raised when a lock cannot be acquired in time."""


class _TableLock:
    """Shared/exclusive lock with FIFO-ish wakeups."""

    def __init__(self):
        self.shared_by: set[int] = set()
        self.exclusive_by: Optional[int] = None
        self.waiters: list[Event] = []

    def can_share(self, txn_id: int) -> bool:
        return self.exclusive_by is None or self.exclusive_by == txn_id

    def can_exclusive(self, txn_id: int) -> bool:
        others_shared = self.shared_by - {txn_id}
        return (self.exclusive_by in (None, txn_id)) and not others_shared

    def wake_all(self) -> None:
        waiters, self.waiters = self.waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()


@dataclass
class _UndoRecord:
    """Before-image of one table, append-only until it must not be.

    Inserts only append new row dicts, so the first ``length`` rows are
    the pre-transaction rows, untouched, until an UPDATE or DELETE
    mutates or removes one; ``saved_rows`` copies them just before the
    first UPDATE, DELETE or CREATE INDEX.
    """

    table: Table
    length: int
    index_names: list[str]
    saved_rows: Optional[list[dict]] = None

    def before_rows(self) -> list[dict]:
        if self.saved_rows is not None:
            return self.saved_rows
        return self.table.rows[:self.length]


class TransactionManager:
    """Lock table + transaction factory for one database."""

    def __init__(self, sim: Simulator, database: Database,
                 lock_timeout: float = 5.0):
        self.sim = sim
        self.database = database
        self.lock_timeout = lock_timeout
        self._locks: dict[str, _TableLock] = {}
        self._txn_ids = itertools.count(1)
        self.committed = 0
        self.aborted = 0

    def begin(self) -> "Transaction":
        return Transaction(self)

    def _lock_for(self, table_name: str) -> _TableLock:
        if table_name not in self._locks:
            self._locks[table_name] = _TableLock()
        return self._locks[table_name]

    def acquire(self, txn: "Transaction", table_name: str,
                exclusive: bool) -> Event:
        """Event that fires when the lock is granted (or fails: deadlock)."""
        lock = self._lock_for(table_name)
        result = self.sim.event()

        def attempt(env):
            deadline = env.now + self.lock_timeout
            while True:
                ok = (lock.can_exclusive(txn.txn_id) if exclusive
                      else lock.can_share(txn.txn_id))
                if ok:
                    if exclusive:
                        lock.exclusive_by = txn.txn_id
                        lock.shared_by.discard(txn.txn_id)
                    else:
                        lock.shared_by.add(txn.txn_id)
                    txn._held.add(table_name)
                    result.succeed()
                    return
                if env.now >= deadline:
                    result.fail(DeadlockError(
                        f"txn {txn.txn_id} timed out waiting for "
                        f"{'X' if exclusive else 'S'} lock on {table_name}"
                    ))
                    return
                waiter = env.event()
                lock.waiters.append(waiter)
                expiry = env.timeout(max(0.0, deadline - env.now))
                yield env.any_of([waiter, expiry])

        self.sim.spawn(attempt(self.sim), name=f"lock-{table_name}")
        return result

    def release_all(self, txn: "Transaction") -> None:
        for table_name in txn._held:
            lock = self._locks.get(table_name)
            if lock is None:
                continue
            lock.shared_by.discard(txn.txn_id)
            if lock.exclusive_by == txn.txn_id:
                lock.exclusive_by = None
            lock.wake_all()
        txn._held.clear()


class Transaction:
    """One ACID(ish) unit of work.

    Usage inside a process::

        txn = manager.begin()
        result = yield txn.execute("SELECT * FROM items WHERE id = ?", (3,))
        yield txn.execute("UPDATE items SET qty = ? WHERE id = ?", (2, 3))
        txn.commit()
    """

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"

    def __init__(self, manager: TransactionManager):
        self.manager = manager
        self.txn_id = next(manager._txn_ids)
        self.state = Transaction.ACTIVE
        self._held: set[str] = set()
        self._undo: dict[str, _UndoRecord] = {}
        self._executor = Executor(manager.database)

    # -- statement execution -------------------------------------------------
    def execute(self, statement_or_sql, params: tuple = ()) -> Event:
        """Event yielding a QueryResult (fails on lock timeout)."""
        if self.state != Transaction.ACTIVE:
            raise TransactionError(f"transaction is {self.state}")
        statement = (parse(statement_or_sql)
                     if isinstance(statement_or_sql, str)
                     else statement_or_sql)
        writes = isinstance(statement, (Insert, Update, Delete,
                                        CreateTable, CreateIndex))
        table_name = statement.table
        sim = self.manager.sim
        result = sim.event()

        def run(env):
            try:
                if not isinstance(statement, CreateTable):
                    yield self.manager.acquire(self, table_name,
                                               exclusive=writes)
                if writes and table_name in self.manager.database.tables:
                    self._snapshot(table_name, copy_rows=isinstance(
                        statement, (Update, Delete, CreateIndex)))
                outcome = self._executor.execute(statement, params)
            except (DeadlockError, TransactionError, QueryError,
                    SchemaError, IntegrityError) as exc:
                self.rollback()
                result.fail(exc)
                return
            result.succeed(outcome)

        sim.spawn(run(sim), name=f"txn{self.txn_id}-exec")
        return result

    def _snapshot(self, table_name: str, copy_rows: bool) -> None:
        """Record the table's before-image on the transaction's first
        write to it; copy its rows before the first statement that may
        change or remove one (``copy_rows``)."""
        record = self._undo.get(table_name)
        if record is None:
            table = self.manager.database.table(table_name)
            record = self._undo[table_name] = _UndoRecord(
                table=table, length=len(table.rows),
                index_names=list(table._indexes))
        if copy_rows and record.saved_rows is None:
            record.saved_rows = [dict(row) for row in record.before_rows()]

    # -- outcome ----------------------------------------------------------
    def commit(self) -> None:
        if self.state != Transaction.ACTIVE:
            raise TransactionError(f"transaction is {self.state}")
        self.state = Transaction.COMMITTED
        self._undo.clear()
        self.manager.release_all(self)
        self.manager.committed += 1

    def rollback(self) -> None:
        if self.state != Transaction.ACTIVE:
            return
        self.state = Transaction.ABORTED
        for record in self._undo.values():
            table = record.table
            table.rows = [dict(row) for row in record.before_rows()]
            table._pk_index = {
                row[table.primary_key.name]: row for row in table.rows
            } if table.primary_key else {}
            rebuilt: dict[str, dict] = {}
            for index_name in record.index_names:
                index: dict = {}
                for row in table.rows:
                    index.setdefault(row[index_name], []).append(row)
                rebuilt[index_name] = index
            table._indexes = rebuilt
        self._undo.clear()
        self.manager.release_all(self)
        self.manager.aborted += 1
