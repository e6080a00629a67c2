(** Integer factorization helpers used throughout the map-space machinery.

    All functions expect strictly positive arguments and raise
    [Invalid_argument] otherwise. *)

val divisors : int -> int list
(** [divisors n] is the sorted list of positive divisors of [n],
    including [1] and [n]. *)

val prime_factorization : int -> (int * int) list
(** [prime_factorization n] is the list of [(prime, multiplicity)] pairs in
    increasing prime order. [prime_factorization 1 = []]. *)

val count_divisors : int -> int
(** [count_divisors n = List.length (divisors n)], computed without
    materializing the list. *)

val splits : int -> int -> int list list
(** [splits n k] enumerates all ordered tuples [\[f1; ...; fk\]] of positive
    integers with [f1 * ... * fk = n]. The number of such tuples is
    [count_splits n k]. *)

val count_splits : int -> int -> int
(** Number of ordered [k]-tuples of positive integers whose product is [n],
    computed combinatorially (stars and bars per prime). *)

val next_divisor : int -> int -> int option
(** [next_divisor n d] is the smallest divisor of [n] strictly greater than
    [d], or [None] if [d >= n]. *)

val cdiv : int -> int -> int
(** Ceiling division on positive integers. *)
