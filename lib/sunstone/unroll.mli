(** Spatial-unrolling candidates under the Spatial Unrolling Principle
    (Section III-B).

    Given the operand [op] temporally reused at the level above the fanout,
    only the *indexing* dimensions of [op] are unrolled — unrolling a
    non-indexing dimension would spatially reuse the already-optimized
    operand. Candidates are the maximal assignments ("high throughput"
    pruning): no factor can be raised to its next divisor without exceeding
    the fanout. *)

type outcome = { candidates : int array list; explored : int }
(** [candidates] are factor vectors indexed like [remaining]. *)

val candidates :
  table:Tile_tree.table ->
  fanout:int ->
  remaining:int array ->
  ?min_utilization:float ->
  unit ->
  outcome
(** [candidates ~table ~fanout ~remaining ()] are the maximal unrollings
    of the grow dims whose remaining extents are [remaining], by position:
    factor vectors with product within [fanout], each factor dividing its
    remaining extent, in {!Tile_tree.search}'s frontier order. Their
    ladders come from [table]. [min_utilization] (fraction of [fanout],
    default 0) additionally filters candidates that underuse the array;
    when every maximal assignment falls below the threshold the unfiltered
    frontier is returned (the best spatial reuse available), and the
    all-ones vector only when [fanout = 1] or [remaining] is empty. *)
