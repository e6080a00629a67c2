(** Tensor-workload intermediate representation.

    A workload is a perfectly nested loop over named problem dimensions with
    no inter-iteration dependencies (Section II-B of the paper): every point
    of the operation space performs one multiply-accumulate reading each
    input operand and updating the output operand at positions given by the
    operand's index expressions. This IR is what Sunstone's problem
    description (Section IV) denotes: it covers convolution (via compound
    sliding-window indices), MTTKRP, TTMc, SDDMM, MMc, TCL and friends. *)

type dim = string
(** A problem dimension, identified by name (e.g. ["K"], ["P"]). *)

type index =
  | Dim of dim  (** the operand axis is addressed by a single dimension *)
  | Affine of (dim * int) list
      (** sliding-window axis: the address is [sum coeff_i * d_i], e.g.
          [p*stride + r] for convolution. Coefficients are strictly
          positive. *)

type operand = {
  name : string;  (** e.g. ["ifmap"], ["weight"], ["ofmap"] *)
  kind : [ `Input | `Output ];
  indices : index list;  (** one entry per tensor axis *)
}

type t = {
  name : string;
  dims : (dim * int) list;  (** dimension bounds, each >= 1 *)
  operands : operand list;  (** exactly one [`Output] member *)
}

(** A broken rule, where it is and the values involved. *)
type violation =
  | Nonpositive_bound of { dim : dim; bound : int }
  | Duplicate_dim of dim  (** each declaration after the first *)
  | Unknown_dim of { operand : string; dim : dim }
  | Empty_affine of { operand : string }
  | Nonpositive_coefficient of { operand : string; dim : dim; coeff : int }
  | Output_count of int  (** the number of [`Output] operands, when not 1 *)
  | Unused_dim of dim  (** a declared dim that indexes no operand *)

val violations : t -> violation list
(** The workload's structural rules, checked in this order: bounds,
    duplicate dims, each operand's indices (unknown dims, then an empty
    affine index or non-positive coefficients), the output count, unused
    dims. *)

val violation_message : violation -> string

val make : name:string -> dims:(dim * int) list -> operands:operand list -> t
(** Builds a workload, or raises [Invalid_argument] with
    ["Workload.make: "] and the message of its first violation. *)

val dim_names : t -> dim list
val bound : t -> dim -> int
(** Raises [Not_found] on an unknown dimension. *)

val macs : t -> float
(** Size of the operation space: the product of all dimension bounds. *)

val output : t -> operand
val inputs : t -> operand list
val find_operand : t -> string -> operand

val index_dims : index -> dim list
val indexing_dims : operand -> dim list
(** All dimensions appearing in the operand's index expressions (sorted,
    deduplicated). *)

val non_indexing_dims : t -> operand -> dim list
(** Dimensions of the workload not used to index the operand — iterating
    over them reuses the operand (Ordering Principle 1). *)

val sliding_dims : operand -> dim list
(** Dimensions that appear inside a compound [Affine] index of the operand:
    iterating over them gives partial (sliding-window) reuse. *)

val is_indexing : operand -> dim -> bool

val operand_size : t -> operand -> float
(** Number of distinct elements the operand spans over the full problem. *)

val axis_extent : (dim -> int) -> index -> int
(** [axis_extent tile idx] is the number of distinct positions the axis
    [idx] touches when each dimension [d] ranges over [tile d] values:
    [tile d] for [Dim d] and [sum coeff_i * (tile d_i - 1) + 1] for a
    compound index. *)

val footprint : (dim -> int) -> operand -> float
(** Product of [axis_extent] over the operand's axes. *)

val pp : Format.formatter -> t -> unit
val pp_operand : Format.formatter -> operand -> unit
