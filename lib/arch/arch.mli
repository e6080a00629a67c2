(** Spatial-accelerator architecture description.

    An architecture is a stack of memory levels from the innermost storage
    (closest to the MACs) out to DRAM. Between a level and its children sits
    a spatial fanout: the number of child instances the level feeds (vector
    lanes, vector MACs per PE, PEs on the grid). A level is split into
    partitions, each accepting either every operand (unified buffers) or a
    set of operand *roles* (per-datatype buffers, e.g. Simba's weight /
    ifmap / ofmap buffers). An operand not accepted anywhere at a level
    bypasses it (e.g. weights skip Simba's L2). *)

type partition = {
  part_name : string;
  capacity_words : int;  (** 0 is allowed only at the DRAM level (unbounded) *)
  accepts : [ `All | `Roles of string list ];
  read_energy : float;  (** pJ per word *)
  write_energy : float;  (** pJ per word *)
  bandwidth : float;  (** words per cycle, aggregate *)
}

type level = {
  level_name : string;
  partitions : partition list;
  fanout : int;  (** number of child instances this level feeds, >= 1 *)
  multicast : bool;  (** NoC below this level can broadcast a word *)
  noc_hop_energy : float;  (** pJ per word per destination *)
  unbounded : bool;  (** true only for DRAM: capacity checks are skipped *)
}

type t = {
  arch_name : string;
  levels : level list;  (** innermost first, DRAM last *)
  mac_energy : float;  (** pJ per multiply-accumulate *)
  mac_throughput : int;  (** MACs each leaf compute instance retires/cycle *)
}

type energy = {
  e_level : int option;  (** [None] for the MAC energy *)
  e_partition : string option;  (** [None] for NoC hop and MAC energies *)
  e_name : string;  (** e.g. ["read energy of partition L1"] *)
  e_pj : float;
}

(** A broken rule, where it is and the values involved. *)
type violation =
  | Too_few_levels of int
  | Top_bounded of { level : int; name : string }
  | Interior_unbounded of { level : int; name : string }
      (** only the outermost level may skip capacity checks *)
  | Bad_fanout of { level : int; name : string; fanout : int }
  | No_partitions of { level : int; name : string }
  | Negative_capacity of { level : int; partition : string; capacity : int }
  | Zero_capacity of { level : int; name : string; partition : string }
      (** a capacity of 0 at a bounded level *)
  | Duplicate_partition of { level : int; name : string; partition : string }
      (** partitions match by name: each would be charged both's operands *)
  | Nonpositive_bandwidth of { level : int; partition : string; bandwidth : float }
      (** the model divides traffic by bandwidth *)
  | Bad_mac_throughput of int  (** the model divides the MACs by it *)
  | Nonfinite_energy of energy  (** the model sums energies into the EDP *)

val violations : t -> violation list
(** The architecture's structural rules, checked in this order: the level
    count, an unbounded outermost level, then per level that only the
    outermost is unbounded, its fanout and its partition list, per
    partition its capacity, a unique name and a positive bandwidth (NaN
    is not positive), then a MAC throughput of at least 1, and last that
    every {!energies} entry is finite. *)

val violation_message : violation -> string

val energies : t -> energy list
(** Every per-event energy the model charges, in level order: each
    partition's read and write energy, each level's NoC hop energy, then
    the MAC energy. *)

val make : name:string -> levels:level list -> mac_energy:float -> ?mac_throughput:int -> unit -> t
(** Builds an architecture, or raises [Invalid_argument] with
    ["Arch.make: "] and the message of its first violation. *)

val unroll_violation : level -> int -> string option
(** The one fanout test, read by the cost model and the legality checker:
    [None] when [n] spatial instances fit under the level, else the
    rejection message. Allocates nothing when they fit. *)

val num_levels : t -> int
val level : t -> int -> level
(** [level t i] with 0 the innermost. *)

val dram_index : t -> int
val total_fanout : t -> int
(** Product of all fanouts: the peak number of parallel compute lanes. *)

val accepts_operand : partition -> role:string -> bool
val stores : level -> role:string -> bool
(** Whether some partition of the level accepts the role. *)

val partition_for : level -> role:string -> partition option
(** First partition accepting the role. *)

val pp : Format.formatter -> t -> unit
