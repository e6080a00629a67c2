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

type scope
(** A tiling scope: tile searches that share one fit predicate, and with it
    one table of fit verdicts. *)

val scope : int array -> scope
(** [scope extents] is an empty scope over grow dims whose extents, in
    grow-dim order, are [extents]. Every search given the scope must pass
    the same grow dims and an extensionally equal [fits], and its
    [remaining] extent of each grow dim must divide the scope's. Each
    search then reuses the verdicts that earlier searches in the scope
    recorded. The table keys a point by its factors' positions among the
    divisors of the scope's extents; it is built by the first search whose
    top corner does not fit, so a scope whose searches all fit whole costs
    nothing beyond the record. When that divisor lattice has more than
    [max_int] points, the scope's searches each keep a private table. *)

val search :
  ?max_steps:int ->
  ?scope:scope ->
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
    testing most of that down-set: it tests the all-ones root and the top
    corner (every factor at its extent), and past those only fitting
    points and points one rung above a fitting point. Apart from each
    search's root and corner tests, [fits] is called at most once per
    point per scope. A search without [?scope] has a private scope over
    its own ladders.

    [max_steps] keeps ladders short: dimensions in the tens of thousands
    (the non-DNN tensor workloads) otherwise make the lattice large for no
    meaningful gain in tile choice. Raises [Invalid_argument] when
    [max_steps < 2], which cannot keep both ends of a ladder, when the
    lattice has more than [max_int] points, or when [scope] does not match
    [grow_dims] in length or has an extent that [remaining] does not
    divide. *)
