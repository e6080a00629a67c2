(** Tiling search tree with Tiling-Principle pruning (Section IV-B, Fig 5).

    Starting from the all-ones tile, each tree edge enlarges one growable
    dimension to the next divisor of its remaining extent. A node with a
    fitting child is pruned (the child offers strictly more reuse — the
    Tiling Principle); nodes that fit but cannot be enlarged in any growable
    dimension are the frontier of candidate tiles.

    The same monotone search is reused for spatial-unrolling candidates (see
    {!Unroll}), where "fits" means the unrolled product stays within the
    fanout. *)

type dim = Sun_tensor.Workload.dim

type assignment = (dim * int) list
(** Factors for the growable dimensions; absent dimensions are 1. *)

val factor_of : assignment -> dim -> int

val assignment : grow_dims:dim list -> int array -> assignment
(** [assignment ~grow_dims factors] pairs each grow dim with its factor in
    the vector {!search} passes to [fits] — the named view, for predicates
    off the hot path. *)

type outcome = {
  frontier : assignment list;  (** maximal fitting tiles, in [grow_dims] order *)
  explored : int;  (** nodes visited, for space-size accounting *)
}

val search :
  ?max_steps:int ->
  grow_dims:dim list ->
  remaining:(dim -> int) ->
  fits:(int array -> bool) ->
  unit ->
  outcome
(** [search ~grow_dims ~remaining ~fits ()] walks the tree depth first.
    [fits] receives the candidate's factors indexed like [grow_dims]; the
    array is the search's scratch, valid only during the call — read it,
    never keep or mutate it. [fits] must be a pure function of the
    factors: it is called at most once per lattice point, and a point's
    verdict is reused when another parent reaches it. Factors assigned to
    a dimension are always divisors of [remaining d]. If even the all-ones
    root does not fit, the frontier is empty.

    [max_steps] (default unlimited) thins each dimension's divisor ladder
    to at most that many geometrically spaced rungs, always keeping 1 and
    the full extent — dimensions in the tens of thousands (the non-DNN
    tensor workloads) otherwise make the walk quadratically expensive for
    no meaningful gain in tile choice. Raises [Invalid_argument] when
    [max_steps < 2], which cannot keep both ends of a ladder. *)
