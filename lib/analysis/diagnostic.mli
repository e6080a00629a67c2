(** Structured diagnostics shared by every static-analysis pass.

    A diagnostic names a stable error code (SAxxx), a severity, an optional
    location inside the checked artifact (memory level, problem dimension,
    operand, buffer partition), and a human-readable message. The code ids
    are part of the tool's output contract: scripts that grep [sunstone
    check --json] output match on ["SA001"], never on message text, so
    messages may be reworded freely but codes must stay stable. *)

type severity = Error | Warning | Info

type code =
  | Capacity_overflow  (** SA001: a tile footprint exceeds a partition capacity *)
  | Unroll_overflow  (** SA002: a level's spatial product exceeds its fanout *)
  | Bad_coverage  (** SA003: per-dim factors missing, duplicated, or not multiplying to the bound *)
  | Bad_order  (** SA004: a level's loop order is not a permutation of the workload dims *)
  | Level_mismatch  (** SA005: mapping level count differs from the architecture's *)
  | Unknown_dim  (** SA006: a factor or order names a dim the workload does not declare *)
  | Nonpositive_factor  (** SA007: a temporal or spatial factor below 1 *)
  | Pruning_unsound  (** SA010: a dim dropped by the search is not a non-reuse dim *)
  | Bound_overshoot  (** SA011: committed-level energy exceeds a complete mapping's energy *)
  | Optimum_pruned  (** SA012: the alpha-beta search lost the reference optimum *)
  | Arch_malformed
      (** SA020: an {!Sun_arch.Arch.violations} rule is broken; a negative energy warns *)
  | Config_invalid  (** SA021: optimizer config outside its documented domain *)
  | Workload_malformed  (** SA022: workload breaks its own structural invariants *)
  | Operand_unstored  (** SA030: no partition at any level accepts an operand's role *)
  | Order_not_subsumed  (** SA031: a pruned loop order has no dominating trie candidate *)
  | Trie_incomplete  (** SA032: the order trie misses a signature-distinct order class *)
  | Frontier_not_maximal  (** SA033: a tiling frontier point can still grow and fit *)
  | Frontier_overflow  (** SA034: a tiling frontier point does not actually fit *)
  | Frontier_incomplete  (** SA035: frontier differs from the brute-force maximal set *)
  | Best_mismatch  (** SA036: pruned-search best differs from the exhaustive best *)
  | Cost_drift  (** SA037: a served mapping's claimed cost differs on re-evaluation *)
  | Partial_function  (** SA044: banned partial function or escape hatch in lib/ *)
  | Exception_swallowed  (** SA064: [try ... with _ ->] silently discarding the error in lib/ *)
  | Stale_suppression  (** SA065: an inline lint suppression matching no hit *)
  | Hot_allocation  (** SA070: allocation reachable from a [(* sunstone-hot *)] root *)
  | Hot_unresolved  (** SA073: hot annotation on a function the call graph cannot find *)
  | Hot_stale  (** SA074: stale or duplicate hot annotation *)

type location = {
  level : int option;
  dim : string option;
  operand : string option;
  partition : string option;
}

type t = { code : code; severity : severity; where : location; message : string }

val code_id : code -> string
(** Stable identifier, e.g. ["SA001"]. *)

val code_name : code -> string
(** Stable kebab-case slug, e.g. ["capacity-overflow"]. *)

val all_codes : code list
(** Every code, in SA-id order; the round-trip tests enumerate this. *)

val code_of_id : string -> code option
(** Inverse of {!code_id}; [None] on unknown ids. *)

val rule_table : unit -> (string * string * string * string) list
(** [(id, severity, summary, scope)] for every code in {!all_codes}, in SA-id
    order — the single source of truth behind [sunstone check --list-rules]. *)

val severity_name : severity -> string

val severity_of_name : string -> severity option
(** Inverse of {!severity_name}. *)

val error :
  ?level:int -> ?dim:string -> ?operand:string -> ?partition:string -> code -> string -> t

val warning :
  ?level:int -> ?dim:string -> ?operand:string -> ?partition:string -> code -> string -> t

val info :
  ?level:int -> ?dim:string -> ?operand:string -> ?partition:string -> code -> string -> t

val errors : t list -> t list
val has_errors : t list -> bool

val summary : t list -> string
(** E.g. ["3 diagnostics (2 errors, 1 warning)"] or ["no diagnostics"]. *)

val pp : Format.formatter -> t -> unit
(** One line: [error[SA001] capacity-overflow (level 0, partition L1): ...]. *)

val pp_list : Format.formatter -> t list -> unit
