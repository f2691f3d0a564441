"""Exception types shared across the :mod:`repro` package.

Keeping a small, explicit hierarchy lets callers catch broad categories
(``ReproError``) or precise failures (``GraphFormatError``) without string
matching.
"""

import operator


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphFormatError(ReproError):
    """An edge list / adjacency input violates the documented format."""


class ParameterError(ReproError):
    """A user-supplied hyperparameter is outside its valid range."""


class ConvergenceError(ReproError):
    """An iterative solver failed to make progress within its budget."""


class DimensionError(ReproError):
    """Array shapes passed to an API are inconsistent with each other."""


class StoreError(ReproError):
    """A serving store on disk cannot be opened as described."""


class StoreCorruptError(StoreError):
    """A store file is truncated, torn, or disagrees with its manifest.

    Raised when bytes on disk cannot back the matrices the manifest
    promises — a half-copied shard, a partially overwritten matrix, or
    a manifest written by an interrupted export.
    """


class ShardLayoutError(StoreError):
    """A sharded store's manifest and its shard directories disagree.

    Raised for missing/extra shard directories, non-contiguous node
    ranges, or per-shard manifests inconsistent with the shard map.
    """


class StalePointerError(StoreError):
    """A versioned root's ``CURRENT`` pointer names a missing version.

    Distinct from a transient publish race: the named version directory
    does not exist at all, so retrying cannot help — the pointer itself
    is stale (e.g. the version was pruned by hand).
    """


def check_integers(**values) -> None:
    """Raise :class:`ParameterError` for any value that is not an integer.

    ``operator.index`` accepts Python and NumPy integers and refuses
    ``16.0``, which ``int(x) != x`` would let through.
    """
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise ParameterError(
                f"{name} must be an integer, got {value!r}") from None
