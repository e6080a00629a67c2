(** Footprint probes, shared by one search or analysis scope.

    The capacity predicate, the optimizer's tile-fit tests and the
    pruning/audit passes all reduce to the same primitive — the tile
    footprint of one operand at one extent vector — and call it millions
    of times per search. A [Probe.t] numbers
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

(** {2 The capacity predicate}

    The one definition of "a tile fits": which operands share a partition
    ({!stored_by_partition}), how many words they occupy ({!occupancy}) and
    when that overflows the partition ({!overflows}). The cost model's
    validation, the legality checker, the well-formedness gate, the
    optimizer's tile search, the directed baselines and the DianNao tuner
    all decide capacity through these functions. *)

type part_fit = {
  part : Sun_arch.Arch.partition;
  stored : axes array;  (** the operands it stores, in the workload's operand order *)
}

type level_fit = {
  bounded : bool;  (** false at DRAM: nothing there overflows *)
  parts : part_fit array;  (** the level's partitions in declaration order *)
}

type table = level_fit array
(** One row per level of the architecture, innermost first. *)

val stored_by_partition :
  Sun_tensor.Workload.t -> Sun_arch.Arch.level -> binding:(string -> string) ->
  (Sun_arch.Arch.partition * Sun_tensor.Workload.operand list) list
(** Per partition of the level, in declaration order: the operands it
    stores under [binding], in the workload's operand order. An operand is
    stored in the first partition that accepts its role. Needs no probe,
    so it also serves workloads a probe cannot resolve. *)

val fit_table :
  t -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> binding:(string -> string) -> table
(** {!stored_by_partition} of every level, with each operand's axes
    resolved. Built once per search or check scope. *)

val occupancy : t -> part_fit -> int array -> float
(** Words the partition's operands occupy at the extent vector (indexed
    by {!dim_index}): their footprints added left to right, bit-identical
    to summing {!Sun_tensor.Workload.footprint} in operand order. *)

val overflows : t -> part_fit -> int array -> bool
(** Does {!occupancy} exceed the capacity by more than 1e-9 words? The
    call allocates nothing. *)

val first_overflow : t -> table -> level:int -> int array -> int
(** Index in [table.(level).parts] of the first partition that
    {!overflows} at the extents, or -1 when none does or the level is
    unbounded. Allocates nothing. *)

val level_fits : t -> table -> level:int -> int array -> bool
(** [first_overflow ... < 0]: the tile at these extents fits every
    partition of the level. Allocates nothing, and is monotone in the
    extents, as the tile searches need. *)

val fill : t -> table -> level:int -> int array -> float
(** The fullest partition's occupied fraction of its capacity, over the
    partitions with a capacity; 0. when there are none. The utilization
    floor of the directed baselines. *)

val changes_footprint : t -> op:string -> dim:string -> bool
(** Does growing [dim] (1 → 2, all other extents 1) change [op]'s
    footprint? The semantic reuse probe of the pruning/audit passes.
    [false] for unknown dims. *)
