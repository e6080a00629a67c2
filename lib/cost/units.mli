(** Phantom-typed dimensional analysis for the cost model.

    Every quantity the energy model manipulates is a [float] at runtime, but
    carries a compile-time unit tag: energies in picojoules, counts of
    accesses / MAC operations / resident words, and per-count energy rates.
    Mixing units — adding an energy to an access count, charging a per-MAC
    rate against an access count — is a type error, not a silent bug. All
    operations are identity-cost wrappers over float arithmetic; the
    generated code is the same as untyped floats, and the operation order is
    preserved exactly so results are bit-identical to the pre-typed model.

    The tags: ['c count t] is a number of ['c] (e.g. [access count t]),
    ['c rate t] is picojoules per ['c], and [energy t] is picojoules.
    [charge] is the only cross-unit multiplication:
    [charge : 'c count t -> 'c rate t -> energy t]. *)

type energy
(** Unit tag: picojoules. *)

type access
(** Counting unit: word-granular buffer accesses. *)

type op
(** Counting unit: MAC operations. *)

type word
(** Counting unit: words resident in a buffer partition. *)

type 'c count
(** Unit tag: a number of ['c] (accesses, ops, words). *)

type 'c rate
(** Unit tag: picojoules per ['c]. *)

type 'u t
(** A float carrying unit ['u]. Zero-cost: the representation is [float]. *)

(** The tag-only wrappers and the arithmetic are declared as compiler
    primitives (matching [external] declarations in the implementation): even
    without flambda, a cross-module call compiles to the raw float
    instruction, so the evaluator's hot path pays nothing for the types. *)

external pj : float -> energy t = "%identity"
external count : float -> 'c count t = "%identity"
external rate : float -> 'c rate t = "%identity"

external to_float : 'u t -> float = "%identity"
(** Strip the unit tag. Used only at the model's public boundary. *)

val zero : 'u t

external ( +: ) : 'u t -> 'u t -> 'u t = "%addfloat"
external ( -: ) : 'u t -> 'u t -> 'u t = "%subfloat"

external scale : float -> 'u t -> 'u t = "%mulfloat"
(** Dimensionless scaling (loop trip counts, directional doubling). *)

val halve : 'u t -> 'u t
(** Exact division by two (implemented as [/. 2.0], not [*. 0.5]). *)

external charge : 'c count t -> 'c rate t -> energy t = "%mulfloat"
(** [charge n r] is the energy of [n] events at [r] pJ each. The phantom
    ['c] forces the count and the rate to agree on what is being counted. *)

val sum : 'u t array -> 'u t
(** Left fold with [+:] from [zero], matching [Array.fold_left ( +. ) 0.0]. *)

val max : 'u t -> 'u t -> 'u t
val gt : 'u t -> 'u t -> bool

(** Unit-tagged flat float arrays ([floatarray]-backed) for the evaluator's
    preallocated scratch: unboxed get/set — again via primitives — with the
    same phantom tags as scalar values. [Arr.sum] folds left from zero,
    matching [Array.fold_left ( +. ) 0.0] bit for bit. *)
module Arr : sig
  type 'u arr

  val make : int -> 'u arr
  (** Zero-filled. *)

  external get : 'u arr -> int -> 'u t = "%floatarray_safe_get"
  external set : 'u arr -> int -> 'u t -> unit = "%floatarray_safe_set"

  val fill : 'u arr -> unit
  (** Reset every element to zero. *)

  val length : 'u arr -> int
  val sum : 'u arr -> 'u t
end
