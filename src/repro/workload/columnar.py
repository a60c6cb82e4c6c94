"""Columnar (batched) shard synthesis — the generation hot path.

:func:`repro.workload.generator.generate_workload_scalar` draws every
site's randomness one ``Generator`` call at a time and validates every
statement object it builds.  That is the right *reference* implementation —
obviously correct, unit-testable, slow — but at campaign scale it is the
bottleneck: ``BENCH_shard.json`` showed ~4k units/s flat from 2k to 1M
units while the vectorized metric side sustains ~558k resamples/s.

This module replaces the hot path without replacing the contract.  It
draws a whole shard's randomness as bulk PCG64 words and decodes them
into *columnar* site records (numpy arrays: type codes, vulnerable/decoy
flags, chain lengths, branch bitmasks, sanitizer codes) in three steps:

1. every word's uniform is compared once, vectorized, against the
   config's thresholds, and the outcomes are packed into one *flag byte*
   per word;
2. a Python walk over the flag bytes finds the data-dependent draw
   boundaries the scalar generator would produce.  It records one packed
   int per site (where the site's words start, where its hops start, its
   chain length) plus the cross-class sanitizer draws, and nothing else;
3. every column is then derived from those records as array code,
   gathering the uniforms at each site's word positions.

Ground truth is labelled with one vectorized pass, and scalar
:class:`~repro.workload.code_model.CodeUnit` /
:class:`~repro.workload.code_model.Statement` objects are only
materialized at the boundary where tools consume them.

Parity contract
---------------
The batch path is **byte-identical** to the scalar generator for every
config it supports: same ``derive_seed`` stream, same draw-for-draw RNG
consumption, same statement objects, same ground truth, same profiles.
This works because every scalar draw maps deterministically onto the raw
64-bit PCG64 word stream:

- ``rng.random()`` consumes one full word: ``(word >> 11) * 2**-53``;
- ``rng.integers(lo, hi)`` (spans below 2**32) runs 32-bit Lemire
  rejection sampling through PCG64's persistent half-word cache: the
  *low* half of a fresh word is used first, the high half is cached
  across calls (including across intervening ``random()`` calls);
- ``rng.choice(n, p=weights)`` consumes one ``random()`` word and maps
  it through ``searchsorted`` on the normalized cumulative weights.

The decoder reproduces all three exactly — including Lemire rejection
redraws (:func:`_draw_int`) and the zero-span case that consumes
nothing — so the boundary walk lands on the same words the scalar
generator would.  The contract
is guarded by ``tests/workload/test_batch_parity.py`` (all registered
ecosystems, ragged shards, isolated regeneration, generated configs)
and by the generation smoke in ``tools/check_bench.py``.

Configs the decoder cannot represent (chains longer than 64 hops, or
integer spans at or above 2**32, which switch numpy to a different
Lemire path) are rejected by :func:`supports_batch`;
:func:`~repro.workload.generator.generate_workload` falls back to the
scalar path for those, so the dispatch is always safe.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro._rng import derive_seed
from repro.workload.code_model import (
    CodeUnit,
    SinkSite,
    Statement,
    StatementKind,
    trusted_statement,
    trusted_unit,
)
from repro.workload.generator import (
    SiteProfile,
    Workload,
    WorkloadConfig,
)
from repro.workload.ground_truth import GroundTruth
from repro.workload.taxonomy import VulnerabilityType

__all__ = [
    "ShardColumns",
    "supports_batch",
    "decode_columns",
    "materialize_workload",
    "generate_workload_batch",
]

_MASK32 = 0xFFFFFFFF
_DOUBLE_SCALE = 2.0**-53
_ENUM_ORDER: tuple[VulnerabilityType, ...] = tuple(VulnerabilityType)

#: Longest chain the branch/order bitmask columns can hold (one bit per hop).
MAX_CHAIN = 64


def supports_batch(config: WorkloadConfig) -> bool:
    """Whether :func:`decode_columns` can reproduce ``config`` exactly.

    The decoder represents per-hop branch decisions as 64-bit masks and
    emulates numpy's *32-bit* Lemire integer path, so it declines chains
    longer than :data:`MAX_CHAIN` hops and integer spans at or above
    2**32 (where numpy switches to the 64-bit path).  Everything the
    registered ecosystems generate is supported; the scalar generator
    remains the fallback for the rest.
    """
    s_lo, s_hi = config.sites_per_unit
    c_lo, c_hi = config.chain_length_range
    if c_hi > MAX_CHAIN:
        return False
    if (s_hi - s_lo) > _MASK32 or (c_hi - c_lo) > _MASK32:
        return False
    return True


@dataclass(frozen=True)
class ShardColumns:
    """One shard's generated content as parallel numpy columns.

    Everything the scalar generator decides per site is recorded here as
    an array element instead of an object graph: the mini-IR statements
    exist only implicitly (site shape columns) until
    :func:`materialize_workload` builds them at the tool boundary.

    Site rows are grouped by unit in generation order: unit ``u`` owns
    rows ``unit_site_offset[u] : unit_site_offset[u] + unit_n_sites[u]``.
    """

    config: WorkloadConfig
    """The config these columns were decoded from."""
    type_order: tuple[VulnerabilityType, ...]
    """Vulnerability types in ``config.type_mix`` order; ``site_type``
    codes index into this tuple."""
    unit_n_sites: np.ndarray
    """int64 ``(n_units,)`` — sites per unit."""
    unit_site_offset: np.ndarray
    """int64 ``(n_units,)`` — index of each unit's first site row."""
    site_unit: np.ndarray
    """int64 ``(n_sites,)`` — owning unit index of each site."""
    site_in_unit: np.ndarray
    """int64 ``(n_sites,)`` — site index within its unit (names the
    ``s{i}_v{j}`` variable prefix)."""
    site_type: np.ndarray
    """int8 ``(n_sites,)`` — code into :attr:`type_order`."""
    site_vulnerable: np.ndarray
    """bool ``(n_sites,)`` — generator intent: truly vulnerable."""
    site_decoy: np.ndarray
    """bool ``(n_sites,)`` — safe site with a same-class sanitizer."""
    site_chain: np.ndarray
    """int64 ``(n_sites,)`` — propagation chain length (hops)."""
    site_branch_mask: np.ndarray
    """uint64 ``(n_sites,)`` — bit ``h`` set: hop ``h`` is a two-operand
    concat (const + concat statements) instead of a plain assign."""
    site_order_mask: np.ndarray
    """uint64 ``(n_sites,)`` — for branch hops, bit ``h`` set: operands
    are ``(tainted, constant)``; clear: ``(constant, tainted)``."""
    site_cross_type: np.ndarray
    """int8 ``(n_sites,)`` — taxonomy-order index of the cross-class
    sanitizer's type, or ``-1`` when the site has none."""
    site_post_assign: np.ndarray
    """bool ``(n_sites,)`` — decoy sites: a propagation assign sits
    between sanitizer and sink."""
    site_statements: np.ndarray
    """int64 ``(n_sites,)`` — statements the site materializes to."""
    site_sink_index: np.ndarray
    """int64 ``(n_sites,)`` — the sink's statement index *within its
    unit* (the :class:`~repro.workload.code_model.SinkSite` identity)."""
    site_difficulty: np.ndarray
    """float64 ``(n_sites,)`` — the profile difficulty in [0, 1]."""

    @property
    def n_units(self) -> int:
        """Units in the shard."""
        return int(self.unit_n_sites.shape[0])

    @property
    def n_sites(self) -> int:
        """Total analysis sites across all units."""
        return int(self.site_type.shape[0])

    @property
    def site_cross(self) -> np.ndarray:
        """bool ``(n_sites,)`` — site carries a cross-class sanitizer."""
        return self.site_cross_type >= 0

    @property
    def site_taxonomy_type(self) -> np.ndarray:
        """int64 ``(n_sites,)`` — :attr:`site_type` as a taxonomy-order
        index, the code space of :attr:`site_cross_type`."""
        enum_codes = np.array(
            [_ENUM_ORDER.index(t) for t in self.type_order], dtype=np.int64
        )
        return enum_codes[self.site_type]

    def unit_ids(self) -> list[str]:
        """Unit ids in unit order (``{name}-u{index:05d}``)."""
        name = self.config.name
        return [f"{name}-u{index:05d}" for index in range(self.n_units)]

    def dependency_mask(self, dependency_fraction: float) -> np.ndarray:
        """bool ``(n_units,)`` — which units are dependency-shaped.

        Delegates to :func:`repro.tools.sca_matcher.dependency_mask`, the
        same seed-free hash partition every SCA-style tool sees.  Imported
        lazily so the workload layer keeps no module-level dependency on
        the tools layer.
        """
        from repro.tools.sca_matcher import dependency_mask

        return dependency_mask(self.unit_ids(), dependency_fraction)


def _draw_int(next32: Callable[[], int], lo: int, span: int) -> int:
    """numpy's buffered 32-bit Lemire draw of an int in ``[lo, lo + span]``.

    ``next32`` yields the 32-bit halves PCG64 hands ``Generator.integers``:
    the low half of a fresh word, then the cached high half.  A draw whose
    low product half falls below ``2**32 mod (span + 1)`` is rejected and
    drawn again, as in numpy's ``buffered_bounded_lemire_uint32``.
    ``span`` is at least 1: numpy reads nothing for a zero span, and the
    walk in :func:`decode_columns` settles those draws without calling
    this.
    """
    rng_excl = span + 1
    threshold = (_MASK32 - span) % rng_excl
    m = next32() * rng_excl
    while m & _MASK32 < threshold:
        m = next32() * rng_excl
    return lo + (m >> 32)


def _draw_words(
    bit_generator: np.random.PCG64, n_words: int, config: WorkloadConfig
) -> tuple[np.ndarray, np.ndarray, bytes]:
    """``n_words`` fresh raw words, their uniforms and their flag bytes.

    A word's uniform is ``rng.random()``'s value for it.  Its flag byte
    holds every threshold the walk in :func:`decode_columns` asks of it:
    bit 0 ``u < prevalence``, bit 1 ``u < decoy_fraction``, bit 2
    ``u < cross_class_sanitizer_rate``, and bits 3–4 the words a hop
    starting at it reads, ``1 + (u < 0.3)`` (a branch hop also reads its
    operand-order word).
    """
    raw = bit_generator.random_raw(n_words)
    uniforms = (raw >> np.uint64(11)) * _DOUBLE_SCALE
    flags = (uniforms < 0.3).view(np.uint8) + np.uint8(1)
    flags <<= np.uint8(3)
    flags |= (uniforms < config.prevalence).view(np.uint8)
    flags |= (uniforms < config.decoy_fraction).view(np.uint8) << np.uint8(1)
    flags |= (uniforms < config.cross_class_sanitizer_rate).view(np.uint8) << np.uint8(2)
    return raw, uniforms, flags.tobytes()


def decode_columns(config: WorkloadConfig) -> ShardColumns:
    """Decode ``config``'s full RNG stream into :class:`ShardColumns`.

    Draws raw 64-bit PCG64 words in bulk with one flag byte per word,
    walks the flag bytes once in generation order to find the
    data-dependent draw boundaries the scalar generator would produce
    (one packed record per site), then derives every column from those
    records as array code.  Word-for-word identical to
    :func:`~repro.workload.generator.generate_workload_scalar` — see the
    module docstring for the stream emulation details.

    Raises :class:`ValueError` for configs outside
    :func:`supports_batch`.
    """
    if not supports_batch(config):
        raise ValueError(
            f"config {config.name!r} is outside the batch decoder's range "
            f"(chains > {MAX_CHAIN} hops or integer spans >= 2**32)"
        )

    types = list(config.type_mix)
    weights = np.array([config.type_mix[t] for t in types], dtype=float)
    p = weights / weights.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    enum_code = np.array([_ENUM_ORDER.index(t) for t in types], dtype=np.int64)

    s_lo, s_hi = config.sites_per_unit
    c_lo, c_hi = config.chain_length_range
    s_span = s_hi - s_lo
    c_span = c_hi - c_lo
    n_other = len(_ENUM_ORDER) - 1
    n_units = config.n_units

    bit_generator = np.random.PCG64(derive_seed(config.seed, f"workload:{config.name}"))

    avg_sites = (s_lo + s_hi) / 2.0
    avg_chain = (c_lo + c_hi) / 2.0
    words_per_unit = 1.0 + avg_sites * (4.0 + 1.3 * avg_chain)
    first_chunk = int(n_units * words_per_unit * 1.15) + 64
    # The most words one unit reads outside next32: its sites draw, then
    # per site type, vulnerable, decoy, chain, two per hop and the
    # post-assign (a vulnerable site reads no decoy or post-assign word,
    # only the cross-class flag; its cross draw goes through next32).
    # next32 reserves the same budget from every fresh word it reads, so
    # a Lemire redraw, which no budget counts, cannot push the rest of
    # its unit past the buffer.
    unit_budget = 1 + s_hi * (5 + 2 * c_hi)

    raw, uniforms, flags = _draw_words(bit_generator, first_chunk, config)
    words = memoryview(raw)

    # Stream cursor: `pos` indexes the next unconsumed 64-bit word;
    # integer draws additionally share PCG64's persistent half-word
    # cache (`has32`/`cached32`), exactly like numpy's Generator.
    pos = 0
    has32 = False
    cached32 = 0

    def reserve(n_words: int) -> None:
        # Extend the buffer so that words pos .. pos + n_words - 1 exist,
        # growing it by at least a quarter so that refills stay rare.
        nonlocal raw, uniforms, flags, words
        missing = pos + n_words - len(flags)
        if missing > 0:
            more_raw, more_uniforms, more_flags = _draw_words(
                bit_generator, max(missing, len(flags) // 4, 1024), config
            )
            raw = np.concatenate((raw, more_raw))
            uniforms = np.concatenate((uniforms, more_uniforms))
            flags += more_flags
            words = memoryview(raw)

    def next32() -> int:
        nonlocal pos, has32, cached32
        if has32:
            has32 = False
            return cached32
        reserve(unit_budget)
        word = words[pos]
        pos += 1
        has32 = True
        cached32 = word >> 32
        return word & _MASK32

    # The sites and chain draws are next32 + _draw_int inlined: a fresh
    # 32-bit half, one product, and a rejection test against the span's
    # precomputed threshold.  A rejected draw is drawn again through
    # _draw_int, which is what numpy's rejection loop does.
    s_excl = s_span + 1
    s_reject = (_MASK32 - s_span) % s_excl
    c_excl = c_span + 1
    c_reject = (_MASK32 - c_span) % c_excl

    unit_sites: list[int] = []
    # Per site, `start << 14 | (first_hop - start) << 7 | chain`: the
    # offset is 2-4 words and the chain at most MAX_CHAIN.
    records: list[int] = []
    cross_draws: list[int] = []
    add_record = records.append

    for _ in range(n_units):
        if pos + unit_budget > len(flags):
            reserve(unit_budget)
        if s_span == 0:
            n_sites = s_lo
        else:
            if has32:
                has32 = False
                m = cached32 * s_excl
            else:
                word = words[pos]
                pos += 1
                has32 = True
                cached32 = word >> 32
                m = (word & _MASK32) * s_excl
            if m & _MASK32 < s_reject:
                n_sites = _draw_int(next32, s_lo, s_span)
            else:
                n_sites = s_lo + (m >> 32)
        unit_sites.append(n_sites)
        for _ in range(n_sites):
            # Type word, vulnerable word, and a safe site's decoy word.
            start = pos
            vulnerable = flags[pos + 1] & 1
            if vulnerable:
                pos += 2
            else:
                decoy = flags[pos + 2] & 2
                pos += 3
            if c_span == 0:
                chain = c_lo
            else:
                if has32:
                    has32 = False
                    m = cached32 * c_excl
                else:
                    word = words[pos]
                    pos += 1
                    has32 = True
                    cached32 = word >> 32
                    m = (word & _MASK32) * c_excl
                if m & _MASK32 < c_reject:
                    chain = _draw_int(next32, c_lo, c_span)
                else:
                    chain = c_lo + (m >> 32)
            add_record(start << 14 | (pos - start) << 7 | chain)
            for _ in range(chain):
                pos += flags[pos] >> 3
            # The hop-end word: a vulnerable site's cross-class flag, or
            # a decoy's post-assign draw.
            if vulnerable:
                crossed = flags[pos] & 4
                pos += 1
                if crossed:
                    cross_draws.append(_draw_int(next32, 0, n_other - 1))
            elif decoy:
                pos += 1
    # The hop pass below reads up to one word past the last hop end.
    reserve(2)

    packed = np.asarray(records, dtype=np.int64)
    n_rows = len(records)
    starts = packed >> 14
    site_chain = packed & 127
    site_type = cdf.searchsorted(uniforms[starts], side="right").astype(np.int8)
    site_vulnerable = uniforms[starts + 1] < config.prevalence
    site_decoy = ~site_vulnerable & (uniforms[starts + 2] < config.decoy_fraction)

    # Step every site through its hops at once, up to the longest chain:
    # `cur` is the word of the site's current hop, and a site past its
    # last hop stays on its hop-end word.
    cur = starts + ((packed >> 7) & 127)
    site_branch_mask = np.zeros(n_rows, dtype=np.uint64)
    site_order_mask = np.zeros(n_rows, dtype=np.uint64)
    branch_hops = np.zeros(n_rows, dtype=np.int64)
    for hop in range(int(site_chain.max())):
        active = site_chain > hop
        branch = active & (uniforms[cur] < 0.3)
        order = branch & (uniforms[cur + 1] < 0.5)
        bit = np.uint64(1 << hop)
        site_branch_mask |= branch * bit
        site_order_mask |= order * bit
        branch_hops += branch
        cur += active
        cur += branch
    hop_end = uniforms[cur]
    site_cross = site_vulnerable & (hop_end < config.cross_class_sanitizer_rate)
    site_post_assign = site_decoy & (hop_end < 0.5)
    # Cross draws arrive in walk order, which is row order: relative to
    # the n_other types that are not the site's own.
    relative = np.asarray(cross_draws, dtype=np.int64)
    own = enum_code[site_type[site_cross]]
    site_cross_type = np.full(n_rows, -1, dtype=np.int8)
    site_cross_type[site_cross] = np.where(relative < own, relative, relative + 1)

    unit_n_sites = np.asarray(unit_sites, dtype=np.int64)
    unit_site_offset = np.concatenate(([0], np.cumsum(unit_n_sites)[:-1]))
    site_unit = np.repeat(np.arange(n_units, dtype=np.int64), unit_n_sites)
    site_in_unit = (
        np.arange(n_rows, dtype=np.int64)
        - np.repeat(unit_site_offset, unit_n_sites)
    )

    # Statement layout, vectorized: head + chain hops (+1 const per
    # branch hop) + optional sanitizers/post-assign + sink.
    site_statements = (
        2
        + site_chain
        + branch_hops
        + site_cross.astype(np.int64)
        + site_decoy.astype(np.int64)
        + site_post_assign.astype(np.int64)
    )
    ends = np.cumsum(site_statements)
    unit_stmt_start = (ends - site_statements)[unit_site_offset]
    site_sink_index = ends - np.repeat(unit_stmt_start, unit_n_sites) - 1

    # Difficulty, same float expression order as the scalar generator.
    span = max(c_hi - c_lo, 1)
    base = (site_chain - c_lo) / span
    bonus = np.where(site_cross, 0.2, 0.0)
    site_difficulty = np.minimum(1.0, 0.8 * base + bonus)

    columns = ShardColumns(
        config=config,
        type_order=tuple(types),
        unit_n_sites=unit_n_sites,
        unit_site_offset=unit_site_offset,
        site_unit=site_unit,
        site_in_unit=site_in_unit,
        site_type=site_type,
        site_vulnerable=site_vulnerable,
        site_decoy=site_decoy,
        site_chain=site_chain,
        site_branch_mask=site_branch_mask,
        site_order_mask=site_order_mask,
        site_cross_type=site_cross_type,
        site_post_assign=site_post_assign,
        site_statements=site_statements,
        site_sink_index=site_sink_index,
        site_difficulty=site_difficulty,
    )
    _verify_labels(columns)
    return columns


def _verify_labels(columns: ShardColumns) -> None:
    """Vectorized generator/oracle consistency pass.

    The scalar generator runs the full taint oracle over every unit and
    asserts it matches the intended labels.  On the columnar record the
    oracle's verdict is a closed-form function of the site shape: taint
    reaches the sink iff the head is an INPUT (vulnerable or decoy
    sites) and no same-class sanitizer interrupts the chain (decoy
    sites sanitize their own class; cross-class sanitizers by
    construction do not).  One array expression labels the whole shard;
    any disagreement with the generator's intent raises exactly like
    the scalar path.
    """
    tainted_head = columns.site_vulnerable | columns.site_decoy
    same_class_sanitizer = columns.site_decoy | (
        columns.site_cross_type == columns.site_taxonomy_type
    )
    oracle_says = tainted_head & ~same_class_sanitizer
    if not np.array_equal(oracle_says, columns.site_vulnerable):
        index = int(np.nonzero(oracle_says != columns.site_vulnerable)[0][0])
        raise AssertionError(
            f"generator/oracle disagreement at site row {index}: "
            f"intended vulnerable={bool(columns.site_vulnerable[index])}, "
            f"oracle={bool(oracle_says[index])}"
        )


# Materialization caches, shared across shards (all keys are pure value
# tuples and all cached objects are immutable, so sharing across threads
# and successive shards is safe; same-key rebuilds are identical).
_NAME_CACHE: dict[tuple[int, int], str] = {}
_SITE_CACHE: dict[tuple, tuple[Statement, ...]] = {}
_PROFILE_CACHE: dict[tuple, SiteProfile] = {}
_SITE_CACHE_LIMIT = 1 << 18


def _var(site_index: int, counter: int) -> str:
    name = _NAME_CACHE.get((site_index, counter))
    if name is None:
        name = f"s{site_index}_v{counter}"
        _NAME_CACHE[(site_index, counter)] = name
    return name


def _site_statements(
    site_index: int,
    vuln_type: VulnerabilityType,
    vulnerable: bool,
    decoy: bool,
    chain: int,
    branch_mask: int,
    order_mask: int,
    cross_code: int,
    post: bool,
) -> tuple[Statement, ...]:
    """Build one site's statement tuple from its columnar record.

    Mirrors ``generator._build_site_statements`` exactly, with the
    randomness already decoded into the mask arguments.
    """
    statements: list[Statement] = []
    counter = 0
    current = _var(site_index, counter)
    counter += 1
    head = StatementKind.INPUT if (vulnerable or decoy) else StatementKind.CONST
    statements.append(trusted_statement(head, current, (), None))

    bit = 1
    for _ in range(chain):
        nxt = _var(site_index, counter)
        counter += 1
        if branch_mask & bit:
            constant = _var(site_index, counter)
            counter += 1
            statements.append(
                trusted_statement(StatementKind.CONST, constant, (), None)
            )
            operands = (
                (current, constant) if order_mask & bit else (constant, current)
            )
            statements.append(
                trusted_statement(StatementKind.CONCAT, nxt, operands, None)
            )
        else:
            statements.append(
                trusted_statement(StatementKind.ASSIGN, nxt, (current,), None)
            )
        current = nxt
        bit <<= 1

    if cross_code >= 0:
        nxt = _var(site_index, counter)
        counter += 1
        statements.append(
            trusted_statement(
                StatementKind.SANITIZE, nxt, (current,), _ENUM_ORDER[cross_code]
            )
        )
        current = nxt

    if decoy:
        nxt = _var(site_index, counter)
        counter += 1
        statements.append(
            trusted_statement(StatementKind.SANITIZE, nxt, (current,), vuln_type)
        )
        current = nxt
        if post:
            nxt = _var(site_index, counter)
            counter += 1
            statements.append(
                trusted_statement(StatementKind.ASSIGN, nxt, (current,), None)
            )
            current = nxt

    statements.append(
        trusted_statement(StatementKind.SINK, None, (current,), vuln_type)
    )
    return tuple(statements)


def materialize_workload(columns: ShardColumns) -> Workload:
    """Build the scalar :class:`Workload` object graph from columns.

    The boundary where tools take over: statements, units, sink sites,
    profiles and ground truth come out equal (``==``) to the scalar
    generator's output for the same config.  Repeated site shapes share
    one interned statement tuple, so materialization cost tracks the
    number of *distinct* shapes, not the number of sites.
    """
    config = columns.config
    type_order = columns.type_order

    rows = zip(
        columns.site_in_unit.tolist(),
        columns.site_type.tolist(),
        columns.site_vulnerable.tolist(),
        columns.site_decoy.tolist(),
        columns.site_chain.tolist(),
        columns.site_branch_mask.tolist(),
        columns.site_order_mask.tolist(),
        columns.site_cross_type.tolist(),
        columns.site_post_assign.tolist(),
        columns.site_sink_index.tolist(),
        columns.site_difficulty.tolist(),
    )

    name = config.name
    units: list[CodeUnit] = []
    profiles: dict[SinkSite, SiteProfile] = {}
    all_sites: list[SinkSite] = []
    vulnerable_sites: list[SinkSite] = []

    site_cache_get = _SITE_CACHE.get
    profile_cache_get = _PROFILE_CACHE.get
    next_row = rows.__next__
    append_site = all_sites.append

    for unit_index, n_sites in enumerate(columns.unit_n_sites.tolist()):
        unit_id = f"{name}-u{unit_index:05d}"
        unit_statements: list[Statement] = []
        for _ in range(n_sites):
            row = next_row()
            # Cache keys carry the VulnerabilityType member itself (not
            # the per-config mix-order code) and, for profiles, the
            # realized difficulty, so entries are valid across configs
            # with different type orders and chain ranges.
            vuln_type = type_order[row[1]]
            key = (row[0], vuln_type) + row[2:9]
            site_stmts = site_cache_get(key)
            if site_stmts is None:
                site_stmts = _site_statements(
                    row[0],
                    vuln_type,
                    row[2],
                    row[3],
                    row[4],
                    row[5],
                    row[6],
                    row[7],
                    row[8],
                )
                if len(_SITE_CACHE) < _SITE_CACHE_LIMIT:
                    _SITE_CACHE[key] = site_stmts
            unit_statements.extend(site_stmts)

            site = SinkSite(unit_id, row[9], vuln_type)
            append_site(site)
            if row[2]:
                vulnerable_sites.append(site)
            profile_key = (vuln_type, row[2], row[3], row[4], row[7] >= 0, row[10])
            profile = profile_cache_get(profile_key)
            if profile is None:
                profile = SiteProfile(
                    vuln_type=vuln_type,
                    vulnerable=row[2],
                    chain_length=row[4],
                    sanitizer_present=row[3] or row[7] >= 0,
                    cross_class_sanitizer=row[7] >= 0,
                    difficulty=row[10],
                )
                _PROFILE_CACHE[profile_key] = profile
            profiles[site] = profile
        units.append(trusted_unit(unit_id, tuple(unit_statements)))

    truth = GroundTruth.trusted(tuple(all_sites), vulnerable_sites)
    return Workload(
        name=name,
        units=tuple(units),
        truth=truth,
        profiles=profiles,
        config=config,
    )


def generate_workload_batch(config: WorkloadConfig) -> Workload:
    """Generate a workload through the columnar batch path.

    Equal output to
    :func:`~repro.workload.generator.generate_workload_scalar` for every
    supported config (see the module docstring's parity contract);
    raises :class:`ValueError` outside :func:`supports_batch`.
    """
    return materialize_workload(decode_columns(config))
