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
    a factor vector of {!search}, such as a frontier tile or the vector
    passed to [fits] — the named view, for callers off the hot path. *)

val ladder : ?max_steps:int -> int -> int list
(** [ladder ?max_steps extent] is the ascending rung ladder {!search}
    walks for a dimension of that extent: its divisors, thinned to at most
    [max_steps] (default unlimited) geometrically spaced rungs, always
    keeping 1 and [extent]. Raises [Invalid_argument] when
    [max_steps < 2]. *)

type table
(** A lattice table: the ladders of the searches that share it, each
    (extent, [max_steps]) pair's built once. One table serves one run of
    searches — the optimizer makes one per [optimize] call — and grows
    with the distinct extents those searches ladder. *)

val table : unit -> table
(** an empty table *)

val rungs : table -> max_steps:int -> int -> int array
(** [rungs table ~max_steps extent] is [ladder ~max_steps extent] as an
    array, built on the first lookup of that pair and the same (physically
    equal) array on every later one. Callers must not mutate it. *)

val built : table -> int
(** the number of ladders the table has built: its distinct
    (extent, [max_steps]) pairs *)

type outcome = {
  frontier : int array list;
      (** the maximal fitting tiles as factor vectors indexed like
          [remaining], in descending lexicographic order, position 0 most
          significant. Each vector is the caller's own. *)
  explored : int;
      (** the number of fitting tiles — the size of the down-set below the
          frontier — or 1 when even the all-ones tile does not fit. This is
          Table I's "examined nodes" count. *)
}

type scope
(** A tiling scope: tile searches that share one fit predicate, and with it
    one table of fit verdicts. *)

val scope : int array -> scope
(** [scope extents] is an empty scope over grow positions whose extents
    are [extents]. Every search given the scope must mean the same dim at
    each position and pass an extensionally equal [fits], and its
    [remaining] extent at each position must divide the scope's. Each
    search then reuses the verdicts that earlier searches in the scope
    recorded. The table keys a point by its factors' positions among the
    divisors of the scope's extents (their unthinned ladders, from the
    building search's {!table}); it is built by the first search whose
    top corner does not fit, so a scope whose searches all fit whole costs
    nothing beyond the record. When that divisor lattice has more than
    [max_int] points, the scope's searches each keep a private table. *)

val search :
  ?max_steps:int ->
  ?scope:scope ->
  table:table ->
  remaining:int array ->
  fits:(int array -> bool) ->
  unit ->
  outcome
(** [search ~table ~remaining ~fits ()] returns the frontier of the
    lattice of tiles over grow dims [0 .. n-1], [n = Array.length
    remaining], whose factor at position [i] is a rung of
    [ladder ?max_steps remaining.(i)]. The ladders come from [table]
    ({!rungs}). If even the all-ones tile does not fit, the frontier is
    empty. [remaining] is read, never kept or mutated.

    [fits] receives the candidate's factors indexed like [remaining]; the
    array is the search's scratch, valid only during the call — read it,
    never keep or mutate it. [fits] must be pure and monotone: if a factor
    vector fits, every vector below it (no factor larger) fits too, so the
    fitting tiles form a down-set. The search relies on this to skip
    testing most of that down-set: it tests the all-ones root and the top
    corner (every factor at its extent), and past those only fitting
    points and points one rung above a fitting point. When the corner
    fits, [explored] is the product of the ladder lengths and nothing
    else is built. Apart from each search's root and corner tests, [fits]
    is called at most once per point per scope. A search without
    [?scope] has a private scope over its own ladders.

    Sweep order and frontier order differ. The down-set is swept in
    lines along one grow dim, the one with the longest ladder (on a tie,
    the later position), so the fewest lines cover it; the other dims
    keep their position order around it. Which points [fits] sees, and in
    what order, follows the sweep. The frontier is sorted back into
    descending lexicographic position order, so the frontier, its order
    and [explored] do not depend on the sweep.

    [max_steps] keeps ladders short: dimensions in the tens of thousands
    (the non-DNN tensor workloads) otherwise make the lattice large for no
    meaningful gain in tile choice. Raises [Invalid_argument] when
    [max_steps < 2], which cannot keep both ends of a ladder, when the
    lattice has more than [max_int] points, or when [scope] does not match
    [remaining] in length or has an extent that [remaining] does not
    divide. *)
