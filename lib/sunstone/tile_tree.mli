(** Tiling search with Tiling-Principle pruning (Section IV-B, Fig 5).

    A tile gives each growable dimension a factor from its divisor ladder,
    starting from the all-ones tile. A tile that can grow by one rung in
    some dimension and still fit is pruned (the bigger tile offers strictly
    more reuse — the Tiling Principle); the fitting tiles that cannot grow
    in any dimension are the frontier of candidate tiles.

    The same search is reused for spatial-unrolling candidates (see
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

val ladder : ?max_steps:int -> int -> int list
(** [ladder ?max_steps extent] is the ascending rung ladder {!search}
    walks for a dimension of that extent: its divisors, thinned to at most
    [max_steps] (default unlimited) geometrically spaced rungs, always
    keeping 1 and [extent]. Raises [Invalid_argument] when
    [max_steps < 2]. *)

type outcome = {
  frontier : assignment list;
      (** the maximal fitting tiles, in descending lexicographic order of
          their factors, the first grow dim most significant *)
  explored : int;
      (** the number of fitting tiles — the size of the down-set below the
          frontier — or 1 when even the all-ones tile does not fit. This is
          Table I's "examined nodes" count. *)
}

val search :
  ?max_steps:int ->
  grow_dims:dim list ->
  remaining:(dim -> int) ->
  fits:(int array -> bool) ->
  unit ->
  outcome
(** [search ~grow_dims ~remaining ~fits ()] returns the frontier of the
    lattice of tiles whose factor for each grow dim [d] is a rung of
    [ladder ?max_steps (remaining d)]. If even the all-ones tile does not
    fit, the frontier is empty.

    [fits] receives the candidate's factors indexed like [grow_dims]; the
    array is the search's scratch, valid only during the call — read it,
    never keep or mutate it. [fits] must be pure and monotone: if a factor
    vector fits, every vector below it (no factor larger) fits too, so the
    fitting tiles form a down-set. The search relies on this to skip
    testing most of that down-set: it calls [fits] at most once per
    lattice point, and only on fitting points, on points one rung above a
    fitting point, and on the top corner (every factor at its extent).

    [max_steps] keeps ladders short: dimensions in the tens of thousands
    (the non-DNN tensor workloads) otherwise make the lattice large for no
    meaningful gain in tile choice. Raises [Invalid_argument] when
    [max_steps < 2], which cannot keep both ends of a ladder, or when the
    lattice has more than [max_int] points. *)
