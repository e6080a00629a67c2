(** Footprint probes, shared by one search or analysis scope.

    The optimizer's tile-fit tests and the pruning/audit passes all reduce
    to the same primitive — the tile footprint of one operand at one extent
    vector — and call it millions of times per search. A [Probe.t] numbers
    the workload's dimensions and resolves each operand's axes to those
    numbers once, so a probe is an integer walk over an extent vector: no
    name lookups per dimension and no list traversal.

    Results are bit-identical to {!Sun_tensor.Workload.footprint} (the
    QCheck suite pins this): the axis extents are exact small integers and
    the float product folds in the same order. A probe holds scratch state,
    so it belongs to one search or check at a time (DESIGN.md §3.7). *)

type t

type axes
(** One operand's axes, resolved to dimension indices. *)

val create : Sun_tensor.Workload.t -> t
(** One probe per (workload, search scope). *)

val dim_index : t -> string -> int
(** Position of a dimension in {!Sun_tensor.Workload.dim_names}, which is
    its slot in {!extents}. Raises [Invalid_argument] on a dimension the
    workload does not name. *)

val axes : t -> op:string -> axes
(** Resolve an operand once per scope. Raises [Invalid_argument] on an
    operand the workload does not name. *)

val extents : t -> int array
(** The probe's scratch extent vector, indexed by {!dim_index} and all
    ones at creation. Callers write a candidate's extents into it, then
    call {!footprint} once per operand. *)

val footprint : t -> axes -> float
(** Footprint of the resolved operand at the extents in {!extents}. *)

val fits : t -> axes array -> capacity:float -> bool
(** Do the operands' footprints at the extents in {!extents} sum to at
    most [capacity]? The sum is bit-identical to adding up {!footprint}
    in array order, and the call allocates nothing. *)

val changes_footprint : t -> op:string -> dim:string -> bool
(** Does growing [dim] (1 → 2, all other extents 1) change [op]'s
    footprint? The semantic reuse probe of the pruning/audit passes.
    [false] for unknown dims. *)
