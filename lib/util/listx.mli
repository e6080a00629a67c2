(** List combinatorics shared by the search-space machinery. *)

val cartesian : 'a list list -> 'a list list
(** [cartesian \[xs1; xs2; ...\]] is all ways to pick one element from each
    list, in order. [cartesian \[\] = \[\[\]\]]. *)

val permutations : ?limit:int -> 'a list -> 'a list list
(** All permutations, or the first [limit] of them, built lazily so the
    rest are never made; factorial blowup is the caller's concern. Each
    element in list order heads its own block, recursively. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (or fewer if the list is shorter). *)

val min_by : ('a -> float) -> 'a list -> 'a option
(** Element minimizing the key, or [None] on the empty list. Ties keep the
    earliest element, making searches deterministic. *)

val sum_by : ('a -> float) -> 'a list -> float

val unique : ('a -> 'a -> int) -> 'a list -> 'a list
(** Sorted deduplication under the given comparison. *)

val range : int -> int list
(** [range n] is [\[0; 1; ...; n-1\]]. *)
