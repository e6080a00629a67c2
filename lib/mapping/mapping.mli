(** Mapping (dataflow) intermediate representation.

    A mapping assigns to each memory level of an architecture: the temporal
    tiling factors of every problem dimension at that level, the traversal
    order of those temporal loops, and the spatial unrolling factors of the
    fanout directly *below* that level. Level 0 is the innermost memory.

    Conventions:
    - for every dimension [d], the product over levels of
      [temporal d * spatial d] must equal the workload bound of [d];
    - [order] lists all workload dimensions outermost-to-innermost; loops
      with factor 1 are no-ops but keep mappings uniform and printable;
    - temporal loops at level [l] iterate *within* the data resident in the
      level-[l] buffer (they are the "L1 loops" of the paper's Algorithm 4),
      so the resident tile spans the temporal and spatial factors of levels
      [<= l], and refills of level [l] are driven by the loops of levels
      strictly above it. *)

type dim = Sun_tensor.Workload.dim

type level_mapping = {
  temporal : (dim * int) list;
  order : dim list;  (** outermost first *)
  spatial : (dim * int) list;
}

type t = { levels : level_mapping array }

val make : Sun_tensor.Workload.t -> level_mapping list -> (t, string) result
(** Structural validation: factor lists cover exactly the workload dims with
    positive factors, orders are permutations of the dims, and per-dimension
    factor products equal the workload bounds. (Capacity and fanout checks
    need the architecture and live in the cost model.)

    Entries may come in any order. Lists in workload order are the cheap
    case: each entry's dim is matched at its own list position first, and
    any other order costs a scan of the dims per misplaced entry. A
    rejection names the first violated rule, checked level by level (dims
    known and factors positive, temporal then spatial, in list order; then
    coverage, temporal then spatial; then the order), then dim by dim in
    workload order for the products. This is the validator for external
    input too ([Codec] decodes through it), so every rule is checked on every
    call. *)

val make_exn : Sun_tensor.Workload.t -> level_mapping list -> t

val num_levels : t -> int

val temporal_factor : t -> level:int -> dim -> int
val spatial_factor : t -> level:int -> dim -> int

val tile_at : t -> level:int -> dim -> int
(** Extent of [d] inside the level-[l] buffer tile: product of temporal and
    spatial factors of levels [<= l]. *)

val spatial_product : t -> level:int -> int
(** Product of all spatial factors at the level: parallel instances used. *)

val total_spatial : t -> int

val footprint_at :
  Sun_tensor.Workload.t -> t -> level:int -> Sun_tensor.Workload.operand -> float
(** Words of the operand resident in one level-[l] buffer instance. *)

val dim_position : dim array -> int -> dim -> int
(** [dim_position dims pos d] is the index of [d] in [dims], or [-1] if it
    is absent. Index [pos] is tried first (physical, then string equality)
    and the array is scanned only on a miss, so resolving the entry at
    position [pos] of a list in [dims] order costs one comparison. *)

val complete_at_top : Sun_tensor.Workload.t -> level_mapping array -> level_mapping array
(** [complete_at_top w levels] places each dim's residual at the outermost
    level: a copy of [levels] whose top temporal factor of [d], listed in
    workload order, is the old one times [bound d] over the product of
    every factor of [d] already placed. Entries naming no workload dim are
    ignored; [levels] itself is not modified. *)

(** A mapping's levels packed by workload dim position: the search's
    candidate representation. Level [l]'s [temporal.(l).(j)] and
    [spatial.(l).(j)] are the factors of the workload's [j]-th dim (in
    [W.dim_names] order), and [order.(l)] lists dim positions, outermost
    first. Searches share rows between candidates and never mutate one. *)
module Rows : sig
  type t = { temporal : int array array; spatial : int array array; order : int array array }

  val valid : bounds:int array -> t -> bool
  (** [valid ~bounds r] applies {!make}'s rules to the rows, allocating
      nothing: every factor row has one positive factor per dim, every
      order is a permutation of the dim positions, and each dim's factors
      multiply to its bound ([bounds] in workload dim order). Among rows
      whose factor rows hold one entry per dim, it accepts exactly those
      whose named levels ({!to_levels}) {!make} accepts. *)

  val of_levels : Sun_tensor.Workload.t -> level_mapping array -> t
  (** [of_levels w levels] packs named levels as rows: the inverse of
      {!to_levels} on levels {!make} accepts, whose entries may come in
      any order. On levels [make] rejects the rows are unspecified. *)

  val to_levels : Sun_tensor.Workload.t -> t -> level_mapping list
  (** The named levels the rows stand for, lists in workload dim order.
      Order entries must be dim positions. *)
end

val single_level : Sun_tensor.Workload.t -> num_levels:int -> t
(** The degenerate mapping placing the whole problem at the outermost level
    (everything streams from DRAM): temporal factors all at the top, orders
    in declaration order. Used as a baseline and in tests. *)

val loops_outermost_first : t -> (int * dim * int) list
(** Flattened temporal loop nest [(level, dim, bound)], outermost first;
    bound-1 loops are omitted. *)

val pp : Format.formatter -> t -> unit
(** Timeloop-style rendering: one line per level, e.g.
    [L2: for K in 4, for P in 2 | spatial K:2 * C:2]. *)

val to_string : t -> string
