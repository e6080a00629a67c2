(** Mapspace auditor (pass 5): differential oracles for the pruned search.

    Sunstone's speed comes from discarding almost the whole mapspace; its
    correctness claim is that nothing discarded could have been optimal.
    This pass re-checks that claim from first principles on a bundled
    family of toy kernels, against brute-force enumeration:

    - {b ordering} (SA031/SA032): every one of the |dims|! loop orders must
      be subsumed by a kept trie candidate — its probe-derived per-operand
      reuse (full-reuse dim set, partial-reuse flag) contained in the
      candidate's. A violation carries a cost certificate: the best EDP
      achievable with the lost order everywhere vs the exhaustive best.
    - {b tiling} (SA033/SA034/SA035): the tiling-tree frontier at the
      innermost level must contain exactly the maximal fitting points of
      the full divisor grid — every frontier point fits, cannot grow by one
      ladder rung in any dimension, and the set equals the brute-force
      maximal set. Where thinning to {!Sun_core.Optimizer.tile_max_steps}
      rungs changes a ladder, the same check runs again over the thinned
      grid the optimizer searches.
    - {b optimality} (SA036): the pruned search's best EDP must equal the
      exhaustive optimum over {!Sun_search.Mapspace.enumerate_active_orders}
      to within 1e-9 relative.

    {!recheck} is the serve-side gate: before a computed mapping is cached
    or returned, its legality is re-checked, its claimed cost re-derived
    (SA037 on drift), and each level's loop order re-verified as subsumed.

    The [injection] hook deliberately breaks the oracle's view of the
    pruning (dropping a load-bearing trie candidate, shrinking a frontier)
    so tests and CI can prove the auditor actually fires. *)

type injection =
  | No_injection
  | Drop_order_candidate
      (** remove a trie candidate that is the sole dominator of some order
          (all candidates if none is); SA031 must fire *)
  | Shrink_frontier  (** drop the last point of each tiling frontier; SA035 must fire *)

type kernel_report = {
  kernel : string;
  arch : string;
  orders_total : int;  (** |dims|! — orders audited for subsumption *)
  orders_kept : int;  (** trie candidates (before injection) *)
  frontier_checked : int;  (** frontier points verified maximal-fitting *)
  mappings_enumerated : int;  (** valid mappings in the exhaustive oracle *)
  exhaustive_edp : float;
  search_edp : float;
  diagnostics : Diagnostic.t list;
}

val kernels : unit -> (string * Sun_tensor.Workload.t * Sun_arch.Arch.t) list
(** The bundled audit family on the toy hierarchy — SDDMM, MMc, TTMc,
    1-D conv, MTTKRP at exhaustively-enumerable sizes, cheapest first so a
    [--kernels N] prefix stays cheap. *)

val check_kernel :
  ?inject:injection -> string * Sun_tensor.Workload.t * Sun_arch.Arch.t -> kernel_report

val check_kernels : ?inject:injection -> ?limit:int -> unit -> kernel_report list
(** The first [limit] bundled kernels (all when omitted or non-positive). *)

val check_frontier :
  ?inject:injection -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> int * Diagnostic.t list
(** The tiling oracle alone, on any workload small enough to brute-force
    its ladder grids: the frontier points checked and the diagnostics. The
    bundled kernels' extents are too small for thinning to drop a rung. *)

val recheck :
  ?binding:Sun_cost.Model.binding ->
  Sun_tensor.Workload.t ->
  Sun_arch.Arch.t ->
  Sun_mapping.Mapping.t ->
  claimed_energy:float ->
  claimed_edp:float ->
  Diagnostic.t list
(** Serve-side response gate: legality (SA001-SA007), cost drift vs the
    claimed numbers (SA037), and per-level order subsumption (SA031). *)
