(** The unpruned mapping space of a workload on an architecture.

    This is the space the prior-art mappers search: every way to split each
    problem dimension into per-level temporal factors and per-fanout spatial
    factors, crossed with every per-level loop order. Spatial factors are
    kept within each level's fanout by construction; buffer-capacity
    validity is a property of the cost model and is *not* enforced here —
    exactly like Timeloop's mapspace, where random picks can be invalid.

    Used three ways: exhaustively on tiny problems (ground truth for
    Sunstone's optimality tests), as the sampling space of the
    Timeloop-like random-search baseline, and analytically for the
    space-size columns of Table I. *)

type t

val create : Sun_tensor.Workload.t -> Sun_arch.Arch.t -> t

val size : t -> float
(** |temporal splits| x |spatial choices| x |loop orders|, counted exactly
    (as a float: the number routinely exceeds 2^62). *)

val size_no_orders : t -> float
(** Tiling and unrolling choices only. *)

val sample : t -> Sun_util.Rng.t -> Sun_mapping.Mapping.t
(** A uniform-ish random mapping: random per-dimension factor chains,
    random per-level orders, spatial factors drawn within fanout. *)

val enumerate_fixed_orders : t -> Sun_mapping.Mapping.t Seq.t
(** The tiling/unrolling space under one canonical loop order per level —
    a cheaper ground truth when order is held fixed. *)

val enumerate_active_orders : t -> Sun_mapping.Mapping.t Seq.t
(** Every tiling and unrolling of the space, crossed with per-level orders
    that permute only the dims with workload bound > 1 (bound-1 dims are
    pinned outermost). The cost model skips factor-1 loops, so every
    skipped order is cost-identical to a visited one: the minimum over
    this space provably equals the minimum over all |dims|!-per-level
    orders, and when every bound is above 1 it is that whole space. Only
    sensible on tiny workloads; the sequence is produced lazily. The
    audit's exhaustive oracle uses this. *)

