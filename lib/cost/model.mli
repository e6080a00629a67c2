(** Analytical cost model for a mapping on an architecture.

    This plays the role Timeloop's hardware-validated model plays in the
    paper (Section V-A): per-component access counts multiplied by
    per-access energies, with double buffering assumed to overlap transfers
    and compute so that latency is the maximum of the compute-bound and the
    per-buffer bandwidth-bound cycle counts. All mappers in this repository
    — Sunstone and every baseline — are scored with this one model, which is
    what makes their comparison meaningful.

    Access counting follows the reuse algebra of Sections II-D and III:
    refills of a buffer are the product of the temporal loop bounds above
    it, except that trailing (innermost-first) loops over non-indexing
    dimensions of an operand are absorbed (full temporal reuse), one
    trailing loop over a sliding-window dimension is absorbed by enlarging
    the fetched extent (partial reuse), spatially unrolled non-indexing
    dimensions are broadcast over a multicasting NoC, and spatially unrolled
    indexing dimensions enlarge the served footprint. Operands bypass levels
    whose partitions do not accept their role (e.g. weights bypass Simba's
    L2). *)

type binding = string -> string
(** Maps an operand name to an architecture role (e.g. ["a" -> "ifmap"]).
    The default binding is the identity. *)

type transfer = {
  operand : string;
  from_level : int;  (** producer memory level *)
  to_level : int;  (** consumer memory level; [-1] denotes the MACs *)
  reads : float;  (** words read out of [from_level] *)
  fills : float;  (** words delivered into [to_level] instances (total) *)
  noc_deliveries : float;  (** word-deliveries charged to the NoC *)
}

type cost = {
  energy_pj : float;
  cycles : float;
  edp : float;  (** [energy_pj *. cycles] *)
  macs : float;
  transfers : transfer list;
  breakdown : (string * float) list;
      (** energy per component: one entry per partition plus ["MAC"] and
          ["NoC"]; entries sum to [energy_pj] *)
  spatial_utilization : float;  (** used lanes / peak lanes, in (0, 1] *)
}

type score = {
  mutable s_energy_pj : float;
  mutable s_cycles : float;
  mutable s_edp : float;  (** [s_energy_pj *. s_cycles] *)
}
(** The search's scoring triple. [score_ctx] computes exactly the same
    energy/cycles/EDP floats as [evaluate_ctx] (bit-identical — the same
    arithmetic runs in the same order) but skips assembling the transfer
    list and energy breakdown, which is most of the allocation of a full
    evaluation. The fields are mutable because [score_ctx] returns a
    context-owned record it overwrites on the next call — see its doc. *)

val copy_score : score -> score
(** A fresh, caller-owned copy. Callers that retain a score past the next
    [score_ctx] call on the same context (e.g. an incumbent-best slot)
    must copy it. *)

type ctx
(** Precomputed evaluation context for one (workload, architecture,
    binding) triple: integer-indexed dimensions, operand axes, storage
    chains, partition lookups — and the evaluator's preallocated scratch
    (layout matrices, per-partition accumulators), so scoring a candidate
    allocates no per-call state. A context is single-in-flight: one
    evaluation uses its scratch at a time. Searches that score many
    mappings of the same problem should create one context and reuse it. *)

val context :
  ?binding:binding -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> ctx

val partitions : ctx -> (string * int) array
(** The global partition table by gid: (partition name, level index), in
    gid order — level-major, declaration order within a level. Pinned by a
    unit test; serialized caches depend on this order being stable. *)

val level_count_violation : Sun_arch.Arch.t -> int -> string option
(** The level-count rule (SA005) for every checker: [Some] message when a
    mapping with the given number of levels does not have one level per
    architecture level. *)

val validate_ctx : ctx -> Sun_mapping.Mapping.t -> (unit, string) result
val evaluate_ctx : ctx -> Sun_mapping.Mapping.t -> (cost, string) result

val score_ctx : ctx -> Sun_mapping.Mapping.t -> (score, string) result
(** Validate and score without building transfers/breakdown — the search
    hot path. Same error strings as [evaluate_ctx]. An accepted call
    allocates nothing: [Ok s] is a preallocated result holding the
    context-owned score record, overwritten by the next [score_ctx] /
    [score_rows] call on this context. Read the fields immediately,
    or {!copy_score} to retain. The zero-allocation contract is pinned by
    the [Gc.minor_words] harness in [test/test_model_hot.ml] and by the
    SA070 hot-path lint. *)

val score_rows : ctx -> Sun_mapping.Mapping.Rows.t -> (score, string) result
(** [score_ctx] on packed rows, the search's candidate form: the rows are
    copied into the same layout scratch the named levels convert into,
    then validated and scored by the same code, so an accepted call returns
    the same score bits and a rejected one the same error string as
    [score_ctx] on the mapping the rows stand for. Every factor row must
    hold one factor per workload dim and every order entry must be a dim
    position ([Invalid_argument] otherwise); factor products are not
    checked ({!Sun_mapping.Mapping.Rows.valid} does that). An accepted call
    allocates nothing and returns the same context-owned record as
    [score_ctx]. *)

type bounds = { mutable lb_energy_pj : float; mutable lb_cycles : float }

val prefix_lower_bounds_rows : ctx -> fixed_levels:int -> Sun_mapping.Mapping.Rows.t -> bounds
(** Energy and cycles lower bounds for a bottom-up search prefix, on packed
    rows (with {!score_rows}' preconditions): levels below [fixed_levels]
    are whole, level [fixed_levels] has its order and spatial unrolls
    committed with its temporal factors still 1, and the levels above are
    at their initial all-ones value. No completion of the prefix costs
    less energy or fewer cycles.

    The energy member charges the MACs, the committed streaming reads and
    every boundary at or below [fixed_levels], plus the mandatory
    top-boundary floor (every tensor word crossing the outermost boundary
    once, at the cheapest top-level energy) while that boundary is still
    uncommitted. The cycles member is the largest of the compute bound on
    the committed unrolls times the full fanout above, each committed
    boundary's traffic over its bandwidth times an upper bound on its
    instance count, and the top-boundary floor. This is the one bound behind
    {!Sun_core.Optimizer}'s alpha-beta test; [sunstone audit] verifies it,
    through this same entry point, against exhaustively enumerated
    mappings. The result is a context-owned record the next call
    overwrites. Allocates nothing. *)

val score_with_top : ctx -> int array -> (score, string) result
(** [score_with_top ctx top] scores the rows the last
    {!prefix_lower_bounds_rows} call on [ctx] loaded, with their top
    temporal row replaced by [top] (one factor per workload dim): the same
    result, bits and error string included, as {!score_rows} on the rows so
    replaced, which must have the architecture's level count. It rewrites
    only the top level's factors and cumulative extents of the loaded
    layout, so a search that bounds a prefix and then scores its naive
    completion loads the rows once. No other call may use [ctx] in
    between, except further [score_with_top] calls. An accepted call
    allocates nothing. *)

val validate :
  ?binding:binding -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> Sun_mapping.Mapping.t ->
  (unit, string) result
(** Checks, beyond [Mapping.make]'s structural rules: the mapping has as
    many levels as the architecture; every buffer partition fits the summed
    footprints of the operands it stores; every spatial level's unrolling
    product fits its fanout. The error string names the first violation. *)

val evaluate :
  ?binding:binding -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> Sun_mapping.Mapping.t ->
  (cost, string) result
(** Validates, then computes the full cost. *)

val evaluate_exn :
  ?binding:binding -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> Sun_mapping.Mapping.t -> cost

val pp_cost : Format.formatter -> cost -> unit
