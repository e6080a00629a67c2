(** Mapspace auditor: the one exhaustive oracle for the pruned search.

    Sunstone's speed comes from discarding almost the whole mapspace; its
    correctness claim is that nothing discarded could have been optimal.
    This pass re-checks that claim from first principles on a bundled
    family of toy kernels, against brute-force enumeration. Per kernel it
    walks {!Sun_search.Mapspace.enumerate_active_orders} once, then runs
    the beam-64 search with alpha-beta on and off:

    - {b bound chain} (SA011): on every enumerated mapping at or below the
      running best, the bounds [Model.prefix_lower_bounds_rows] — the
      entry point the search calls — gives the packed rows of the search's
      prefix at each boundary ({!search_prefix}) stay at or below the
      mapping's true energy and cycles (1e-6 relative). A violation means
      alpha-beta could prune a prefix of the optimum. A kernel reports one
      SA011 per boundary and quantity (energy or cycles) that overshot,
      with the number of overshooting mappings and the worst overshoot:
      bound, cost and their ratio.
    - {b ordering} (SA031/SA032): every one of the |dims|! loop orders must
      be subsumed by a kept trie candidate — its {!Pruning.scan} reuse
      (full-reuse dim set, partial-reuse flag) contained in the
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
      exhaustive optimum to within 1e-9 relative, and some valid mapping
      must exist.
    - {b alpha-beta} (SA012): the search with alpha-beta off must return
      the same EDP (1e-9 relative) as with it on.

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
  bound_checked : int;  (** mappings at or below the running best whose bound chain was checked *)
  exhaustive_edp : float;
  search_edp : float;  (** beam-64 search, alpha-beta on *)
  no_prune_edp : float;  (** the same search, alpha-beta off *)
  diagnostics : Diagnostic.t list;
}

val kernels : unit -> (string * Sun_tensor.Workload.t * Sun_arch.Arch.t) list
(** The bundled audit family on the toy hierarchy — matrix-vector, SDDMM,
    MMc, TTMc, 1-D conv, MTTKRP, tensor-times-vector and matmul at
    exhaustively-enumerable sizes, cheapest first so a [--kernels N]
    prefix stays cheap. *)

val check_kernels : ?inject:injection -> ?limit:int -> unit -> kernel_report list
(** The first [limit] bundled kernels (all when omitted or non-positive). *)

val check_frontier :
  ?inject:injection -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> int * Diagnostic.t list
(** The tiling oracle alone, on any workload small enough to brute-force
    its ladder grids: the frontier points checked and the diagnostics. The
    bundled kernels' extents are too small for thinning to drop a rung. *)

val search_prefix :
  Sun_tensor.Workload.t -> Sun_mapping.Mapping.t -> k:int -> Sun_mapping.Mapping.t
(** The prefix the bottom-up search holds at boundary [k] on its way to a
    complete mapping: levels below [k] whole, level [k]'s order and spatial
    unrolls with its temporal factors reset to 1, and the levels above at
    their initial all-ones value — the shape the search bounds with
    [Model.prefix_lower_bounds_rows]. *)

val check_bound :
  ?samples:int -> ?seed:int -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> int * Diagnostic.t list
(** The bound chain alone, on any workload: [samples] (default 64)
    mapspace samples plus the search's own best mapping. The mappings
    checked and the diagnostics, one SA011 per boundary and quantity as
    in the audit; deterministic for a fixed [seed]. *)

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
