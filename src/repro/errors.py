"""Exception hierarchy for the Educe* reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one type.  The sub-hierarchy mirrors the ISO Prolog
error terms where a natural mapping exists (type_error, existence_error,
instantiation_error, ...), plus storage-level errors for the BANG/EDB side.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class PrologError(ReproError):
    """Base class for errors raised during parsing, compilation or execution
    of logic programs."""


class SyntaxError_(PrologError):
    """Raised by the tokenizer/reader on malformed Prolog text.

    Carries the source position for diagnostics.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class InstantiationError(PrologError):
    """An argument was an unbound variable where a bound term is required."""


class TypeError_(PrologError):
    """An argument has the wrong type (ISO ``type_error``)."""

    def __init__(self, expected: str, culprit: object):
        super().__init__(f"type_error({expected}, {culprit!r})")
        self.expected = expected
        self.culprit = culprit


class ExistenceError(PrologError):
    """A referenced procedure, relation or object does not exist."""

    def __init__(self, kind: str, name: str):
        super().__init__(f"existence_error({kind}, {name})")
        self.kind = kind
        self.name = name


class PermissionError_(PrologError):
    """An operation is not permitted on the target (e.g. redefining a
    built-in predicate, modifying a frozen procedure)."""


class EvaluationError(PrologError):
    """Arithmetic evaluation failed (zero divisor, undefined function...)."""


class ResourceError(PrologError):
    """A machine resource was exhausted (heap, trail, dictionary...)."""


class MachineError(PrologError):
    """Internal inconsistency detected by the WAM emulator; indicates a
    compiler or loader bug rather than a user error."""


class VerifyError(PrologError):
    """A WAM code block failed static verification (:mod:`repro.analysis`).

    Raised by the compiler/assembler self-checks and by the dynamic
    loader when code fetched from the EDB is rejected *before* the
    emulator runs it.  Carries the rule id (``docs/ANALYSIS.md``), the
    instruction offset and a human-readable reason.
    """

    def __init__(self, rule: str, offset: int, reason: str,
                 procedure: str = ""):
        self.rule = rule
        self.offset = offset
        self.reason = reason
        self.procedure = procedure
        where = f" in {procedure}" if procedure else ""
        super().__init__(
            f"verify_error({rule}, offset {offset}{where}): {reason}")


class StorageError(ReproError):
    """Base class for storage-level (BANG / pager / EDB) errors."""


class PageError(StorageError):
    """A page id is out of range or a page image is corrupt."""


class CatalogError(StorageError):
    """Schema catalog inconsistency (duplicate relation, unknown attribute,
    arity mismatch...)."""


class CodecError(StorageError):
    """The relative-address code serialisation is malformed."""


class WalError(StorageError):
    """The write-ahead log refused an operation (oversized record,
    detached file).  Corrupt/torn frames are *not* errors: recovery
    treats them as the uncommitted tail and truncates them."""


class ReplicationError(ReproError):
    """Base class for WAL-shipping replication (:mod:`repro.replication`)
    errors."""


class ReadOnlyStore(ReplicationError):
    """A mutation reached a store frozen for replication (a follower
    applying a primary's WAL stream).  Followers accept mutations only
    through the replication apply path; everything else must go to the
    primary — or wait for this store to be promoted."""

    def __init__(self, reason: str):
        super().__init__(f"store is read-only ({reason})")
        self.reason = reason


class PromotionError(ReplicationError):
    """A replica could not be promoted to primary (still attached, or
    its catch-up drain did not complete)."""


class LockOrderError(ReproError):
    """A lock acquisition that would deadlock by construction (e.g. a
    read→write upgrade on the same
    :class:`~repro.locks.ReadWriteLock`)."""


class ServiceError(ReproError):
    """Base class for concurrent query service (:mod:`repro.service`)
    errors."""


class ServiceClosed(ServiceError):
    """A submission arrived after the service began shutting down."""


class ServiceSaturated(ServiceError):
    """The bounded work queue could not admit a submission."""


class ReadOnlyService(ServiceError):
    """A mutation was submitted to a read-only :class:`QueryService`
    (one serving a replica).  Writes go to the primary."""


class ReplicaLagExceeded(ServiceError):
    """No replica satisfies a read's staleness bound.

    Raised by :meth:`repro.replication.ReplicaSet.submit_read` when
    every attached replica lags the primary by more than the caller's
    ``max_lag`` (in mutation epochs).  Carries the freshest lag seen so
    callers can widen the bound or wait.
    """

    def __init__(self, max_lag: int, best_lag: object):
        super().__init__(
            f"no replica within max_lag={max_lag} epochs "
            f"(freshest observed lag: {best_lag})")
        self.max_lag = max_lag
        self.best_lag = best_lag


class QueryInterrupted(ServiceError):
    """A running query was cancelled or exceeded its deadline.

    ``reason`` is ``"cancelled"`` or ``"deadline"``.
    """

    def __init__(self, reason: str):
        super().__init__(f"query interrupted ({reason})")
        self.reason = reason
