"""Distributed tall-skinny QR (paper Listing 4 and Benson et al. 2013).

The streaming update of the parallel class needs a QR factorization of a
row-block-distributed tall-skinny matrix ``A`` (rows = grid points spread
over ranks, columns = ``K + batch`` ≪ rows).  Two variants are provided:

``tsqr_gather``
    The paper's scheme (Listing 4): every rank takes a local QR, the small
    ``R`` factors are gathered and stacked at rank 0, a second QR of the
    stack yields the global ``R`` and a correction factor that rank 0 slices
    and sends back to each rank.  Simple, but rank 0 handles ``p * n x n``.

``tsqr_tree``
    The communication-optimal binary-reduction TSQR: pairs of ranks merge
    their ``R`` factors up a tree (``log2 p`` rounds), then the per-level
    correction factors are pushed back down.  Same result (both are
    canonicalised to ``diag(R) >= 0``), lower critical-path volume — the
    A5 ablation bench contrasts the two.

Both return ``(Q_local, R)`` with ``Q_local`` the caller's row block of the
global orthonormal factor and ``R`` replicated on every rank.

Pipelined steps
---------------
:class:`PipelinedGatherStep` / :class:`PipelinedTreeStep` split one
TSQR-plus-reduce step into a *post* phase (receives preposted before the
local QR, local factor taken, small ``R`` shipped) and a *finish* phase
(merge/refactor, a root-side ``reduce_fn(R)`` — e.g. the small SVD of the
streaming update — and a **fused** reply carrying each rank's correction
block together with ``reduce_fn``'s results in a single message).
Between ``post`` and ``finish`` the caller is free to do unrelated work
(ingest the next batch, prefetch IO) while the collectives are in flight;
:class:`~repro.core.parallel.ParSVDParallel`'s streaming update is built on
these.  Their local factor keeps ``Q`` implicit
(:func:`~repro.utils.linalg.householder_qr`): no tall ``Q`` is formed, the
caller lifts the small fused correction through the compact-WY reflectors
instead.  The blocking variants form ``Q`` explicitly from the same
kernel, so both agree to round-off.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from ..exceptions import ShapeError
from ..obs import runtime as _obs
from ..utils.linalg import as_floating, householder_qr, qr_positive

__all__ = [
    "PipelinedGatherStep",
    "PipelinedTreeStep",
    "tsqr_gather",
    "tsqr_tree",
]

#: Base of the p2p tag range used by the gather variant (mirrors the
#: paper's ``tag=rank+10``).
_TAG_BASE = 10
#: Tag range used by the tree variant (distinct from the gather variant so
#: both can run on one communicator in sequence).
_TAG_TREE_UP = 200
_TAG_TREE_DOWN = 300
#: Tag ranges of the pipelined steps (distinct from the blocking variants
#: so posted traffic can sit in mailboxes across a blocking call).
_TAG_PIPE_UP = 400
_TAG_PIPE_DOWN = 500
_TAG_PTREE_UP = 600
_TAG_PTREE_DOWN = 700


def _validate_local(a_local: np.ndarray) -> np.ndarray:
    a_local = as_floating(a_local, "local block")
    if a_local.ndim != 2:
        raise ShapeError(f"local block must be 2-D, got ndim={a_local.ndim}")
    return a_local


def _stack_and_refactor(blocks, n: int, workspace):
    """Rank-0 core of the gather variant: stack the per-rank ``R`` factors
    and take the canonical QR of the stack.

    With a workspace the stack lands in a reused F-ordered buffer that
    LAPACK may refactor in place (it copies non-Fortran input regardless);
    the buffer is scratch either way once the factors are out.  Returns
    ``(q2, r_final, offsets)`` with ``offsets`` delimiting each rank's
    rows of ``q2`` (counts can differ when a rank owns fewer rows than
    columns).
    """
    counts = [blk.shape[0] for blk in blocks]
    total = sum(counts)
    dtype = blocks[0].dtype
    if workspace is None:
        stacked = np.empty((total, n), dtype=dtype)
    else:
        stacked = workspace.get("tsqr_rstack", (total, n), dtype, order="F")
    offsets = np.cumsum([0] + counts)
    for peer, blk in enumerate(blocks):
        stacked[offsets[peer] : offsets[peer + 1]] = blk
    q2, r_final = qr_positive(stacked, overwrite_a=workspace is not None)
    return q2, r_final, offsets


def tsqr_gather(
    comm, a_local: np.ndarray, workspace=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather-based TSQR (the paper's ``parallel_qr`` communication pattern).

    Parameters
    ----------
    comm:
        Communicator.
    a_local:
        ``(M_i, n)`` local row block, all ranks agreeing on ``n`` and with
        ``sum_i M_i >= n`` for a full-rank result.
    workspace:
        Optional :class:`~repro.core.workspace.Workspace` enabling the
        allocation-free fast lane.  Passing it asserts that ``a_local`` is
        caller-owned *scratch*: rank 0 stacks the gathered ``R`` factors
        into a reused workspace buffer (no ``np.concatenate``), the stacked
        refactorization may destroy that buffer (``overwrite_a``), and the
        returned ``q_local`` is written **in place over** ``a_local``
        (whose contents are no longer needed once the local QR is taken).

    Returns
    -------
    (q_local, r):
        ``q_local`` — ``(M_i, n)`` row block of the global ``Q``;
        ``r`` — the global ``(n, n)`` upper-triangular factor, replicated.
    """
    a_local = _validate_local(a_local)
    n = a_local.shape[1]

    # Local QR; canonical signs so the stacked reduction is deterministic.
    # On the fast lane the input is declared scratch, so LAPACK may factor
    # it in place (zero-copy when the caller hands an F-ordered workspace
    # buffer: Q then aliases the input storage).
    scratch_input = workspace is not None and a_local.flags.writeable
    q1, r1 = qr_positive(a_local, overwrite_a=scratch_input)
    rows_local = r1.shape[0]

    r_stack = comm.gather(r1, root=0)
    if comm.rank == 0:
        q2, r_final, offsets = _stack_and_refactor(r_stack, n, workspace)
        # Slice the correction factor by each rank's R row count and ship it.
        # (Counts can differ when a rank owns fewer rows than columns.)
        for peer in range(1, comm.size):
            comm.send(
                np.ascontiguousarray(q2[offsets[peer] : offsets[peer + 1]]),
                dest=peer,
                tag=_TAG_BASE + peer,
            )
        q2_local = q2[offsets[0] : offsets[1]]
    else:
        r_final = None
        q2_local = comm.recv(source=0, tag=_TAG_BASE + comm.rank)
    r_final = comm.bcast(r_final, root=0)

    if workspace is not None:
        # The correction GEMM lands in a persistent buffer (q1 may alias
        # the spent input, so the output cannot go there).
        q_out = workspace.get(
            "tsqr_q", (q1.shape[0], q2_local.shape[1]), q1.dtype
        )
        q_local = np.matmul(q1, q2_local, out=q_out)
    else:
        q_local = q1 @ q2_local
    if q_local.shape[1] != n:  # pragma: no cover - defensive
        raise ShapeError(
            f"TSQR produced {q_local.shape[1]} columns, expected {n}"
        )
    return q_local, r_final


def _tree_recv_schedule(rank: int, size: int, comm, tag_base: int) -> Dict[int, object]:
    """Prepost one receive per upsweep level at which ``rank`` will merge.

    The binary-reduction schedule is static: at level ``d`` (stride
    ``2^d``) a still-active rank with the ``2^d`` bit clear absorbs
    ``rank + 2^d`` (when that partner exists).  Posting the receives
    before any local compute is the MPI prepost idiom — the partner's
    ``R`` lands while this rank is busy factoring its own block.
    """
    requests: Dict[int, object] = {}
    stride, depth = 1, 0
    while stride < size:
        if rank % stride == 0 and not (rank & stride) and rank + stride < size:
            requests[depth] = comm.irecv(rank + stride, tag_base + depth)
        stride <<= 1
        depth += 1
    return requests


def _tree_upsweep(
    comm,
    r_current: np.ndarray,
    up_requests: Dict[int, object],
    workspace,
    n: int,
    tag_base: int,
    skip_first_send: bool = False,
):
    """Run the binary reduction of R factors (receives preposted).

    Returns ``(r_current, q_factors, merge_meta)`` — the reduced factor
    (final global ``R`` on rank 0), the correction chain and its metadata.
    With a workspace, each level's stacked R pair lands in a pooled
    F-ordered buffer that LAPACK may refactor in place.
    """
    rank, size = comm.rank, comm.size
    q_factors = []  # correction chain, innermost (local) first
    merge_meta = []  # (partner, my_rows, partner_rows) per merge
    stride, depth = 1, 0
    active = True
    while stride < size:
        if active:
            partner = rank ^ stride
            if partner < size:
                if rank & stride:
                    if not (skip_first_send and depth == 0):
                        # Blocking send: the partner preposted this level's
                        # receive, and a completed send needs no buffer-
                        # lifetime management on any backend.
                        comm.send(r_current, dest=partner, tag=tag_base + depth)
                    active = False
                else:
                    with _obs.span(
                        "tsqr.tree_wait", phase="wait", rank=rank
                    ):
                        r_partner = np.asarray(up_requests[depth].wait())
                    my_rows = r_current.shape[0]
                    partner_rows = r_partner.shape[0]
                    if workspace is None:
                        stacked = np.concatenate(
                            (r_current, r_partner), axis=0
                        )
                    else:
                        # F-ordered so the in-place refactorization below
                        # needs no LAPACK-side copy.
                        stacked = workspace.get(
                            f"tree_stack_{depth}",
                            (my_rows + partner_rows, n),
                            np.result_type(r_current.dtype, r_partner.dtype),
                            order="F",
                        )
                        stacked[:my_rows] = r_current
                        stacked[my_rows:] = r_partner
                    q_merge, r_current = qr_positive(
                        stacked, overwrite_a=workspace is not None
                    )
                    merge_meta.append((partner, my_rows, partner_rows))
                    q_factors.append(q_merge)
        stride <<= 1
        depth += 1
    return r_current, q_factors, merge_meta


def tsqr_tree(
    comm, a_local: np.ndarray, workspace=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Binary-reduction TSQR (Benson, Gleich & Demmel 2013).

    Communication structure: ``ceil(log2 p)`` rounds.  In round ``d`` the
    rank with the set ``2^d`` bit sends its current ``R`` to its partner
    (``rank - 2^d``), which stacks the two ``R`` factors, refactors, and
    keeps the product chain of correction blocks.  The downsweep then sends
    each child its slice of the correction factor so every rank can update
    its local ``Q``.

    Every receive in this rank's static schedule — the per-level partner
    ``R`` factors and (non-root) the downsweep correction — is posted
    *before* the local QR, so partners' traffic lands in the mailbox while
    this rank factors its own block.  ``workspace`` (as in
    :func:`tsqr_gather`) declares ``a_local`` caller-owned scratch and
    pools the per-level stacked ``R`` pairs plus the final correction
    GEMM's output.

    Results match :func:`tsqr_gather` to round-off because both are
    canonicalised (``diag(R) >= 0``), which the tests assert.
    """
    a_local = _validate_local(a_local)
    n = a_local.shape[1]
    rank, size = comm.rank, comm.size

    # --- prepost the whole receive schedule, then factor locally ----------
    up_requests = _tree_recv_schedule(rank, size, comm, _TAG_TREE_UP)
    if rank != 0 and size > 1:
        down_request = comm.irecv(
            rank & ~stride_of_absorption(rank),
            _TAG_TREE_DOWN + level_of_absorption(rank),
        )
    scratch = workspace is not None and a_local.flags.writeable
    q_local, r_current = qr_positive(a_local, overwrite_a=scratch)

    # --- upsweep: binary reduction of R factors -------------------------
    r_current, q_factors, merge_meta = _tree_upsweep(
        comm, r_current, up_requests, workspace, n, _TAG_TREE_UP
    )

    # --- broadcast final R (owned by rank 0 after the reduction) -----------
    r_final = comm.bcast(r_current if rank == 0 else None, root=0)

    # --- downsweep: push correction slices back down the tree --------------
    # Each rank accumulates `correction`, the matrix C such that its block of
    # the global Q is q_local @ C.  Rank 0 starts with the identity of the
    # final R's row count; merges are unwound in reverse order.
    if rank == 0:
        correction = np.eye(r_final.shape[0], dtype=r_final.dtype)
    else:
        # Receive from the partner that absorbed this rank's R (preposted).
        with _obs.span("tsqr.down_wait", phase="wait", rank=rank):
            correction = down_request.wait()

    for q_merge, (partner, my_rows, partner_rows) in zip(
        reversed(q_factors), reversed(merge_meta)
    ):
        combined = q_merge @ correction
        comm.send(
            np.ascontiguousarray(combined[my_rows : my_rows + partner_rows]),
            dest=partner,
            tag=_TAG_TREE_DOWN + level_of_absorption(partner),
        )
        correction = combined[:my_rows]

    if workspace is not None:
        # q_local may alias the spent input buffer; land the correction
        # GEMM in a stable pooled destination instead.
        q_out = workspace.get(
            "tsqr_q", (q_local.shape[0], correction.shape[1]), q_local.dtype
        )
        q_local = np.matmul(q_local, correction, out=q_out)
    else:
        q_local = q_local @ correction
    if q_local.shape[1] != n:  # pragma: no cover - defensive
        raise ShapeError(
            f"tree TSQR produced {q_local.shape[1]} columns, expected {n}"
        )
    return q_local, r_final


def _abort_request(request: object) -> None:
    """Best-effort cancel of one in-flight request during an abort/drain.

    Receives that already completed (or foreign request objects without a
    ``cancel``) are simply left alone — abort is about releasing the
    *pending* ones so a crashed step never trips the leak detector or
    emits un-awaited ResourceWarnings."""
    cancel = getattr(request, "cancel", None)
    if cancel is None:
        return
    try:
        cancel()
    except Exception:  # already done / backend-specific refusal
        pass


def _frozen_copy(block: np.ndarray) -> np.ndarray:
    """An owning, read-only snapshot of ``block`` — the communicator's
    zero-copy lane ships such snapshots without a second copy, even
    inside tuple payloads.  A fresh buffer-owning input (e.g. a GEMM
    product) is frozen in place; views and writable borrows are copied.
    """
    if block.base is None and block.flags.owndata and block.flags.writeable:
        block.flags.writeable = False
        return block
    snapshot = np.array(block, copy=True)
    snapshot.flags.writeable = False
    return snapshot


class PipelinedGatherStep:
    """One in-flight gather-variant TSQR + reduce step.

    Construction is the *post* phase: the root preposts one receive per
    peer **before** its local QR, every rank factors its block (in place
    on the workspace fast lane), and non-roots ship their small ``R`` and
    prepost the receive for the fused reply — then return to the caller
    with the step in flight.

    :meth:`finish` completes the step: the root stacks the gathered ``R``
    factors (pooled buffer), refactors, runs ``reduce_fn(R_global) ->
    (combine, *rest)`` — e.g. the streaming update's truncated small SVD
    — and sends each peer its correction block **pre-multiplied by**
    ``combine`` together with ``rest`` in one fused message.  Three
    envelopes per peer pair per step collapse into one, the blocking
    path's separate ``R``/result broadcasts disappear, and the
    correction-combine product is taken *small-matrices-first*: each rank
    later lifts only ``correction @ combine`` through its local factor,
    never ``(q1 @ correction) @ combine`` — a large cut of the per-step
    FLOPs when ``combine`` is a truncation.

    On one rank the stack is the local ``R`` alone, already upper
    triangular with a nonnegative diagonal: its Householder reflectors are
    all identities (``tau = 0``), so the refactor is skipped and
    ``combine`` is the fused correction as is.

    Returns ``(q1, fused_correction, *rest)`` with ``q1`` the local
    :class:`~repro.utils.linalg.HouseholderQ`: the caller owns the final
    ``q1.apply(fused_correction)`` lift (and its destination buffer).
    """

    def __init__(self, comm, a_local: np.ndarray, workspace=None) -> None:
        a_local = _validate_local(a_local)
        self._comm = comm
        self._workspace = workspace
        self._n = a_local.shape[1]
        if comm.rank == 0 and comm.size > 1:
            # Preposted before the local QR (the prepost idiom).
            self._up = [
                comm.irecv(peer, _TAG_PIPE_UP)
                for peer in range(1, comm.size)
            ]
        scratch = workspace is not None and a_local.flags.writeable
        with _obs.span("tsqr.local_qr", phase="qr", rank=comm.rank):
            self._q1, self._r1 = householder_qr(a_local, overwrite_a=scratch)
        # In-flight sends are retained until finish() so backends whose
        # send requests own the wire buffer (mpi4py pickle mode) cannot
        # have it collected mid-flight.
        self._outbox = []
        if comm.rank != 0:
            self._outbox.append(comm.isend(self._r1, 0, _TAG_PIPE_UP))
            self._reply = comm.irecv(0, _TAG_PIPE_DOWN)

    def advance(self) -> bool:
        """Non-blocking progress poll: ``True`` when :meth:`finish` can
        run without waiting on any peer.

        The root is ready once every preposted per-peer ``R`` receive has
        arrived (``test()`` banks the payload, so the later ``wait`` in
        ``finish`` is instant); a non-root is ready once the fused reply
        landed.  The progress daemon calls this with backoff so
        ``overlap=True`` steps complete in the background.
        """
        comm = self._comm
        if comm.rank == 0:
            if comm.size == 1:
                return True
            return all(request.test()[0] for request in self._up)
        return bool(self._reply.test()[0])

    def finish(self, reduce_fn: Callable[[np.ndarray], tuple]) -> tuple:
        """Complete the step; ``reduce_fn`` runs on rank 0 only."""
        with _obs.span(
            "tsqr.finish", phase="tsqr_comm", rank=self._comm.rank
        ):
            return self._finish(reduce_fn)

    def _finish(self, reduce_fn: Callable[[np.ndarray], tuple]) -> tuple:
        comm, workspace, n = self._comm, self._workspace, self._n
        if comm.size == 1:
            # The one-block stack is already canonical: Q2 = I, R = r1.
            return (self._q1,) + tuple(reduce_fn(self._r1))
        if comm.rank == 0:
            blocks = [self._r1]
            with _obs.span("tsqr.gather_wait", phase="wait", rank=0):
                blocks.extend(np.asarray(req.wait()) for req in self._up)
            q2, r_final, offsets = _stack_and_refactor(blocks, n, workspace)
            reduced = tuple(reduce_fn(r_final))
            combine, rest = reduced[0], tuple(reduced[1:])
            rest_shared = tuple(
                _frozen_copy(item) if isinstance(item, np.ndarray) else item
                for item in rest
            )
            for peer in range(1, comm.size):
                # Small-first fuse at the root: the shipped block is the
                # peer's whole remaining update except its one tall GEMM.
                piece = _frozen_copy(
                    q2[offsets[peer] : offsets[peer + 1]] @ combine
                )
                self._outbox.append(
                    comm.isend((piece,) + rest_shared, peer, _TAG_PIPE_DOWN)
                )
            fused = q2[offsets[0] : offsets[1]] @ combine
        else:
            with _obs.span(
                "tsqr.reply_wait", phase="wait", rank=comm.rank
            ):
                payload = self._reply.wait()
            fused = payload[0]
            rest = tuple(payload[1:])
        # Drain the outbox: the peers' matching receives are preposted, so
        # these waits are instant once the step's exchange has happened.
        for request in self._outbox:
            request.wait()
        self._outbox = []
        return (self._q1, fused) + rest

    def abort(self) -> None:
        """Abandon the in-flight step: cancel pending receives, drop the
        outbox.  Called on the recovery path (a peer died mid-step) —
        afterwards the step must not be finished."""
        for request in getattr(self, "_up", []) or []:
            _abort_request(request)
        self._up = []
        reply = getattr(self, "_reply", None)
        if reply is not None:
            _abort_request(reply)
            self._reply = None
        for request in getattr(self, "_outbox", []):
            _abort_request(request)
        self._outbox = []


class PipelinedTreeStep:
    """One in-flight tree-variant TSQR + reduce step.

    Post phase: the full static receive schedule (per-level upsweep
    partners plus the downsweep correction) is preposted before the local
    QR; leaf ranks absorbed at level 0 ship their ``R`` immediately so it
    travels while their partner is still factoring.  :meth:`finish` runs
    the binary reduction, ``reduce_fn(R_global) -> (combine, *rest)`` at
    the root, and a **fused downsweep**: each correction slice travels
    together with ``reduce_fn``'s results, each merging rank forwarding
    them to the partners it absorbed — no separate ``R``/result
    broadcasts at all.  The downsweep keeps full-width corrections (the
    children's chains need them); the ``combine`` fold happens
    small-matrices-first at the leaves, so — like the gather step — each
    rank performs exactly one tall operation, the caller's lift through
    its implicit local factor.  Returns ``(q1, fused_correction, *rest)``.
    """

    def __init__(self, comm, a_local: np.ndarray, workspace=None) -> None:
        a_local = _validate_local(a_local)
        self._comm = comm
        self._workspace = workspace
        self._n = a_local.shape[1]
        rank, size = comm.rank, comm.size
        self._up = _tree_recv_schedule(rank, size, comm, _TAG_PTREE_UP)
        if rank != 0 and size > 1:
            self._down = comm.irecv(
                rank & ~stride_of_absorption(rank),
                _TAG_PTREE_DOWN + level_of_absorption(rank),
            )
        scratch = workspace is not None and a_local.flags.writeable
        with _obs.span("tsqr.local_qr", phase="qr", rank=comm.rank):
            self._q1, self._r1 = householder_qr(a_local, overwrite_a=scratch)
        # In-flight sends are retained until finish() (mpi4py send
        # requests own the wire buffer; see PipelinedGatherStep).
        self._outbox = []
        # Leaf fast path: a rank absorbed at level 0 performs no merges,
        # so its R is final now — ship it and let it overlap the partner's
        # local QR (and whatever the caller does next).
        self._sent_leaf = bool(rank & 1) and size > 1
        if self._sent_leaf:
            self._outbox.append(
                comm.isend(self._r1, rank - 1, _TAG_PTREE_UP + 0)
            )
        # Cached upsweep result, populated either by finish() or eagerly
        # by advance() — running the upsweep as soon as the partner R
        # factors arrive ships this rank's merged R up the tree without
        # waiting for an explicit finish, which is what lets background
        # progress daemons complete tree steps on every rank: the root's
        # readiness depends on its children's upsweeps having run.
        self._upswept = None

    def _run_upsweep(self):
        if self._upswept is None:
            self._upswept = _tree_upsweep(
                self._comm,
                self._r1,
                self._up,
                self._workspace,
                self._n,
                _TAG_PTREE_UP,
                skip_first_send=self._sent_leaf,
            )
        return self._upswept

    def advance(self) -> bool:
        """Non-blocking progress poll: ``True`` when :meth:`finish` can
        run without waiting on any peer.

        Two stages.  First, once every upsweep receive in this rank's
        static schedule has arrived, the upsweep runs *eagerly* — merging
        the R factors and shipping the result toward the root (pure
        ``test()`` polling would deadlock here: the root's last upsweep
        receive only arrives when its child runs *its* upsweep, which
        plain ``finish`` defers).  Second, a non-root is ready once the
        fused downsweep payload landed; the root is ready as soon as its
        upsweep is done.
        """
        if self._upswept is None:
            if not all(request.test()[0] for request in self._up.values()):
                return False
            self._run_upsweep()
        if self._comm.rank == 0:
            return True
        down = self._down
        return down is not None and bool(down.test()[0])

    def finish(self, reduce_fn: Callable[[np.ndarray], tuple]) -> tuple:
        """Complete the step; ``reduce_fn`` runs on rank 0 only."""
        with _obs.span(
            "tsqr.finish", phase="tsqr_comm", rank=self._comm.rank
        ):
            return self._finish(reduce_fn)

    def _finish(self, reduce_fn: Callable[[np.ndarray], tuple]) -> tuple:
        comm = self._comm
        rank = comm.rank
        r_current, q_factors, merge_meta = self._run_upsweep()
        if rank == 0:
            # The identity seed depends only on R's shape/dtype; build it
            # before reduce_fn, which may consume R in place.
            correction = np.eye(r_current.shape[0], dtype=r_current.dtype)
            reduced = tuple(reduce_fn(r_current))
            combine, rest = reduced[0], tuple(reduced[1:])
            extras = (
                _frozen_copy(combine),
            ) + tuple(
                _frozen_copy(item) if isinstance(item, np.ndarray) else item
                for item in rest
            )
        else:
            with _obs.span("tsqr.down_wait", phase="wait", rank=rank):
                payload = self._down.wait()
            correction = payload[0]
            extras = tuple(payload[1:])
            combine, rest = extras[0], tuple(extras[1:])
        for q_merge, (partner, my_rows, partner_rows) in zip(
            reversed(q_factors), reversed(merge_meta)
        ):
            combined = q_merge @ correction
            piece = _frozen_copy(combined[my_rows : my_rows + partner_rows])
            self._outbox.append(
                comm.isend(
                    (piece,) + extras,
                    partner,
                    _TAG_PTREE_DOWN + level_of_absorption(partner),
                )
            )
            correction = combined[:my_rows]
        # Small-first fuse at the leaf: fold the combine factor into the
        # (n x n) correction before the single tall lift the caller runs.
        fused = correction @ combine
        # Drain the outbox (matching receives are preposted; see the
        # gather step).
        for request in self._outbox:
            request.wait()
        self._outbox = []
        return (self._q1, fused) + rest

    def abort(self) -> None:
        """Abandon the in-flight step: cancel the upsweep schedule, the
        downsweep receive and the outbox (see
        :meth:`PipelinedGatherStep.abort`)."""
        for request in (getattr(self, "_up", None) or {}).values():
            _abort_request(request)
        self._up = {}
        down = getattr(self, "_down", None)
        if down is not None:
            _abort_request(down)
            self._down = None
        for request in getattr(self, "_outbox", []):
            _abort_request(request)
        self._outbox = []


def level_of_absorption(rank: int) -> int:
    """Tree level at which ``rank`` sent its R upward (index of its lowest
    set bit); rank 0 never sends."""
    if rank == 0:
        raise ValueError("rank 0 is the reduction root and is never absorbed")
    return (rank & -rank).bit_length() - 1


def stride_of_absorption(rank: int) -> int:
    """Stride (``2^level``) at which ``rank`` was absorbed."""
    if rank == 0:
        raise ValueError("rank 0 is the reduction root and is never absorbed")
    return rank & -rank
