"""Batched confusion matrices — the vectorized resampling substrate.

The bootstrap studies (discrimination R7, repeatability R2, run-to-run noise
R19) evaluate every candidate metric on hundreds of multinomial resamples of
the same confusion matrix.  Doing that one :class:`~repro.metrics.confusion.
ConfusionMatrix` at a time walks a Python loop per resample per metric; a
:class:`ConfusionBatch` instead holds the four cell counts as shape-``(n,)``
float arrays so a metric kernel can evaluate all ``n`` matrices in a handful
of numpy operations.

Stream compatibility contract: :func:`resample_cells` draws all of a
matrix's resamples with a *single* ``rng.multinomial(total, probs, size=n)``
call using the same cell order as :meth:`ConfusionMatrix.resample` (``tp,
fp, fn, tn``).  NumPy's sized multinomial consumes the bit stream exactly
like the equivalent sequence of single draws, so at the same seed the block
is byte-identical to ``n`` scalar ``resample`` calls — vectorization never
changes a published statistic.  :meth:`ConfusionBatch.resample` and the
batched bootstrap (:func:`repro.stats.bootstrap.bootstrap_metric_batch`,
which stacks several matrices' blocks into one batch) both draw through it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro._rng import rng_from_seed
from repro.errors import ConfigurationError
from repro.metrics.confusion import ConfusionMatrix

__all__ = ["ConfusionBatch", "resample_cells", "safe_div_array"]


def safe_div_array(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Elementwise division yielding ``nan`` where the denominator is zero.

    The array counterpart of :func:`repro.metrics.base.safe_div`: for every
    element the result is bit-identical to the scalar helper (a genuine IEEE
    division where the denominator is non-zero, ``nan`` where it is zero, and
    ``nan`` propagated from a ``nan`` numerator or denominator).
    """
    numerator = np.asarray(numerator, dtype=float)
    denominator = np.asarray(denominator, dtype=float)
    out = np.full(np.broadcast(numerator, denominator).shape, np.nan)
    np.divide(numerator, denominator, out=out, where=denominator != 0)
    return out


def resample_cells(
    cm: ConfusionMatrix, n_resamples: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n_resamples`` bootstrap resamples of ``cm`` from ``rng``.

    Returns an ``(n_resamples, 4)`` integer block whose rows are ``tp, fp,
    fn, tn`` counts, drawn by one sized multinomial (see the module
    docstring for why that equals ``n_resamples`` scalar resamples).
    """
    if n_resamples < 1:
        raise ConfigurationError(f"n_resamples={n_resamples} must be >= 1")
    counts = np.array([cm.tp, cm.fp, cm.fn, cm.tn], dtype=float)
    n = int(round(counts.sum()))
    probabilities = counts / counts.sum()
    return rng.multinomial(n, probabilities, size=n_resamples)


@dataclass(frozen=True)
class ConfusionBatch:
    """``n`` confusion matrices stored column-wise as shape-``(n,)`` arrays.

    The batch mirrors the :class:`ConfusionMatrix` aggregate/rate API with
    array-valued properties, so metric kernels read almost exactly like their
    scalar counterparts.  Rates that are undefined for a row (``tpr`` with no
    positives, ...) are ``nan`` in that row rather than raising.
    """

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray

    def __post_init__(self) -> None:
        for field in ("tp", "fp", "fn", "tn"):
            array = np.asarray(getattr(self, field), dtype=float)
            if array.ndim != 1:
                raise ConfigurationError(
                    f"confusion batch column {field} must be 1-D, got shape {array.shape}"
                )
            object.__setattr__(self, field, array)
        shapes = {self.tp.shape, self.fp.shape, self.fn.shape, self.tn.shape}
        if len(shapes) != 1:
            raise ConfigurationError(f"confusion batch columns disagree in shape: {shapes}")
        if len(self) == 0:
            raise ConfigurationError("confusion batch must contain at least one matrix")
        stacked = np.stack([self.tp, self.fp, self.fn, self.tn])
        if not np.all(np.isfinite(stacked)) or np.any(stacked < 0):
            raise ConfigurationError("confusion batch counts must be finite and >= 0")
        if np.any(self.total == 0):
            raise ConfigurationError("every matrix in a confusion batch needs >= 1 site")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_matrices(cls, matrices: Iterable[ConfusionMatrix]) -> "ConfusionBatch":
        """Stack individual matrices (e.g. one per tool) into a batch."""
        rows = list(matrices)
        if not rows:
            raise ConfigurationError("from_matrices needs at least one matrix")
        return cls(
            tp=np.array([cm.tp for cm in rows], dtype=float),
            fp=np.array([cm.fp for cm in rows], dtype=float),
            fn=np.array([cm.fn for cm in rows], dtype=float),
            tn=np.array([cm.tn for cm in rows], dtype=float),
        )

    @classmethod
    def from_cells(cls, cells: np.ndarray) -> "ConfusionBatch":
        """Wrap an ``(n, 4)`` array of ``tp, fp, fn, tn`` rows."""
        return cls(tp=cells[:, 0], fp=cells[:, 1], fn=cells[:, 2], tn=cells[:, 3])

    @classmethod
    def resample(
        cls,
        cm: ConfusionMatrix,
        n_resamples: int,
        seed: int | np.random.Generator,
    ) -> "ConfusionBatch":
        """Draw ``n_resamples`` bootstrap resamples of ``cm`` in one call.

        Cell order and bit stream match ``n_resamples`` sequential
        :meth:`ConfusionMatrix.resample` calls on the same generator (see the
        module docstring), so downstream statistics are byte-identical to the
        scalar path.
        """
        return cls.from_cells(resample_cells(cm, n_resamples, rng_from_seed(seed)))

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.tp.shape[0])

    def matrix(self, index: int) -> ConfusionMatrix:
        """Materialize row ``index`` as a scalar :class:`ConfusionMatrix`."""
        return ConfusionMatrix(
            tp=float(self.tp[index]),
            fp=float(self.fp[index]),
            fn=float(self.fn[index]),
            tn=float(self.tn[index]),
        )

    def matrices(self) -> list[ConfusionMatrix]:
        """Materialize every row (the inverse of :meth:`from_matrices`)."""
        return [self.matrix(i) for i in range(len(self))]

    # ------------------------------------------------------------------
    # Aggregates (array-valued mirrors of ConfusionMatrix)
    # ------------------------------------------------------------------
    @property
    def total(self) -> np.ndarray:
        """Sites per matrix: TP + FP + FN + TN."""
        return self.tp + self.fp + self.fn + self.tn

    @property
    def positives(self) -> np.ndarray:
        """Ground-truth vulnerable sites: TP + FN."""
        return self.tp + self.fn

    @property
    def negatives(self) -> np.ndarray:
        """Ground-truth clean sites: FP + TN."""
        return self.fp + self.tn

    @property
    def predicted_positives(self) -> np.ndarray:
        """Sites the tool flagged: TP + FP."""
        return self.tp + self.fp

    @property
    def predicted_negatives(self) -> np.ndarray:
        """Sites the tool passed over: FN + TN."""
        return self.fn + self.tn

    @property
    def prevalence(self) -> np.ndarray:
        """Fraction of sites that are truly vulnerable."""
        return self.positives / self.total

    # ------------------------------------------------------------------
    # Rates (nan where undefined, matching the scalar properties)
    # ------------------------------------------------------------------
    @property
    def tpr(self) -> np.ndarray:
        """True-positive rate (recall): TP / (TP + FN)."""
        return safe_div_array(self.tp, self.positives)

    @property
    def fpr(self) -> np.ndarray:
        """False-positive rate: FP / (FP + TN)."""
        return safe_div_array(self.fp, self.negatives)

    @property
    def tnr(self) -> np.ndarray:
        """True-negative rate (specificity): TN / (FP + TN)."""
        return safe_div_array(self.tn, self.negatives)

    @property
    def fnr(self) -> np.ndarray:
        """False-negative rate: FN / (TP + FN)."""
        return safe_div_array(self.fn, self.positives)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ConfusionBatch n={len(self)}>"
