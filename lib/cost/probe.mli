(** Footprint probes, shared by one search or analysis scope.

    The optimizer's tile-fit tests and the pruning/audit passes all reduce
    to the same primitive — the tile footprint of one operand at one extent
    vector — and call it millions of times per search. A [Probe.t] resolves
    the workload's dimension names and operand axes once, so each probe is
    an integer walk over a scratch extent vector: no name lookups per
    dimension and no list traversal.

    Results are bit-identical to {!Sun_tensor.Workload.footprint} (the
    QCheck suite pins this): the axis extents are exact small integers and
    the float product folds in the same order. A probe holds scratch state,
    so it belongs to one search or check at a time (DESIGN.md §3.7). *)

type t

val create : Sun_tensor.Workload.t -> t
(** One probe per (workload, search scope). *)

val set_extents : t -> (string -> int) -> unit
(** Fill the probe's scratch extent vector, one call per candidate; the
    per-operand {!footprint} calls that follow reuse it without
    re-resolving dimension names. *)

val footprint : t -> op:string -> float
(** Footprint of [op] at the extents loaded by {!set_extents}. Raises
    [Invalid_argument] on an operand the workload does not name. *)

val footprint_of : t -> op:string -> (string -> int) -> float
(** [set_extents] + [footprint] in one call, for single-operand probes. *)

val changes_footprint : t -> op:string -> dim:string -> bool
(** Does growing [dim] (1 → 2, all other extents 1) change [op]'s
    footprint? The semantic reuse probe of the pruning/audit passes.
    [false] for unknown dims. *)
