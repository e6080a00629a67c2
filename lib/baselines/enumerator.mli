(** The directed enumeration shared by the dMaze-like and Interstellar-like
    mappers: spatial factors per fanned-out level, then bottom-up tiles
    per bounded level, then per-level loop orders.

    - Spatial: each level with a fanout above 1, innermost first, takes one
      of the tool's unrolling choices for the extents the levels before it
      left.
    - Tiles: each bounded level below the top takes a maximal tile of what
      is left that fits every partition ({!Sun_cost.Probe.level_fits}, the
      optimizer's own fit test), whose fullest partition
      ({!Sun_cost.Probe.fill}) reaches the tool's utilization floor. The
      top level takes each dim's residual.
    - Orders: from level 1 outwards, at most [max_order_candidates]
      permutations of the level's loops with a factor above 1 are scored
      and the best is kept; level 0 keeps the identity order.

    Every complete mapping is scored with {!Sun_cost.Model.score_rows}, the
    same EDP bits as a full evaluation; the best is built as a mapping
    once, at the end. Tile searches add their Table I examined nodes to
    [examined], and every scored order trial adds one.

    The stop rule is a count, so a result depends only on the input:
    once [examined] reaches {!examined_budget}, no further tile
    assignment starts. *)

val examined_budget : int
(** 12,000,000: above the 10,964,183 that the largest Fig 7 cell (dMaze-slow
    on 3x3_early) reaches without a stop. *)

type unrolling = Sun_core.Tile_tree.assignment
(** Spatial factors of one level; absent dims are 1. *)

val product : unrolling -> int
(** The product of an unrolling's factors: the PEs it occupies. *)

val run :
  tool:string ->
  spatial:(fanout:int -> unroll:(Sun_tensor.Workload.dim list -> unrolling list) -> unrolling list) ->
  tile_floor:(int -> float) ->
  max_order_candidates:int ->
  ?binding:Sun_cost.Model.binding ->
  Sun_tensor.Workload.t ->
  Sun_arch.Arch.t ->
  Mapper.outcome
(** [spatial ~fanout ~unroll] is the tool's unrolling choices at a level
    of that fanout; [unroll grow] is the frontier of unrollings over the
    [grow] dims that fit the fanout (its nodes count as examined).
    [tile_floor level] is the least fill of the fullest partition a tile
    of [level] must reach; at [0.] or below, every fitting maximal tile
    is kept. The outcome is reported under [tool]. *)
