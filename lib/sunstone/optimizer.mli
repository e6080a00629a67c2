(** The Sunstone scheduler: level-by-level dataflow optimization.

    Bottom-up (the paper's default, Section V-A): starting at the innermost
    memory boundary and moving outward, each pass chooses the loop ordering
    of the level above the boundary (from the pruned ordering trie), the
    tile of the level below it (from the tiling-tree frontier over the
    reused operand's indexing dimensions), and the spatial unrolling of the
    fanout between them (maximal unrollings of the same reuse dimensions).
    Partial schedules are scored by completing them naively at DRAM and
    keeping the best [beam_width]; alpha-beta pruning discards prefixes
    whose admissible EDP lower bound ({!Sun_cost.Model.prefix_lower_bounds_rows})
    already exceeds the best complete schedule found.

    Candidates are packed rows ({!Sun_mapping.Mapping.Rows}) that share
    every level they do not change. A bottom-up pass runs on candidate
    indices: each (order, group) pair is loaded into one scratch row set
    to be bounded and scored, where a group is one prefix with one tile
    and unrolling choice, and the candidates of a group, which differ
    only in a loop order no loop is under yet, share one verdict. The
    incumbent, the post-search refinement's moves and a transferred seed
    are rows too: [Mapping.make] validates only the incoming seed, and a
    [Mapping.t] is built once per search, for the result, whose factor
    lists follow the workload's dim order.

    Top-down (the Table VI ablation) runs the same per-level machinery from
    DRAM inward; because on-chip capacities are large, its per-pass frontier
    is far bigger and the partial-energy bound is weaker, which is exactly
    the effect Table VI reports.

    This module is the driver. The phases are private modules of
    [sun_core]: [Search_state] (one call's state and the row, tile and
    unroll helpers), [Enumeration] (a bottom-up pass's groups and
    candidates), [Bottom_up] (the per-candidate bound, score and beam,
    and the pass loop), [Top_down], and [Incumbent], which owns the
    incumbent and everything a transferred seed changes: the pruning
    margin and the second refinement. *)

type direction = Search_state.direction = Bottom_up | Top_down

type intra_order = Search_state.intra_order = Ordering_first | Tiling_first | Unrolling_first
(** Order in which the per-level sub-optimizations are enumerated (Table
    VI, rows 1-3). Each pass fixes the loop orders first, so only the
    tile/unroll nesting varies: [Unrolling_first] searches tiles under each
    unrolling, while [Ordering_first] and [Tiling_first] both search
    unrollings under each tile. Those two are one computation, with
    identical candidates, counts and EDP; both stay so Table VI keeps its
    three rows and the codec its wire values. *)

type config = Search_state.config = {
  direction : direction;
  intra : intra_order;
  beam_width : int;  (** prefixes kept between passes *)
  alpha_beta : bool;
  min_spatial_utilization : float;  (** "high throughput" floor, 0..1 *)
  refine : bool;
      (** hill-climb the incumbent afterwards (single-factor moves between
          levels and adjacent order swaps) to recover mappings just outside
          the per-level reuse-dimension restriction *)
  binding : Sun_cost.Model.binding;
}

val default_config : config
(** Bottom-up, unrolling-first (Table VI row 1), beam 12, alpha-beta on,
    utilization floor 0.5, refinement on, identity binding. *)

type stats = {
  examined : int;  (** candidate nodes generated across all passes *)
  evaluated : int;  (** complete mappings scored with the cost model *)
  pruned_alpha_beta : int;
  build_errors : int;
      (** candidates breaking [Mapping.make]'s structural rules — 0 on a
          healthy mapspace; a nonzero count means a search pass emitted
          structurally broken levels, which used to be silently
          indistinguishable from pruning. Every candidate, refinement
          moves included, is packed rows checked by
          {!Sun_mapping.Mapping.Rows.valid}, which accepts exactly what
          [Mapping.make] does. A bottom-up pass makes the same check in
          parts: each row where it is made, and the products in the naive
          completion ({!Sun_mapping.Mapping.Rows.complete_into}). *)
  eval_errors : int;
      (** structurally sound candidates [Model.score_rows] rejected
          (capacity or fanout) *)
  tile_fit_tests : int;
      (** calls of the tile-fit test across every tile-frontier search:
          the buffer-capacity checks {!Tile_tree.search} could not settle
          from its scope's verdict table (flushed as
          [optimizer.tile_fit_tests]). It counts work, not search
          results: it moves with the points a sweep tests (its line dim,
          {!Tile_tree.search}) and with which searches run at all, since
          bottom-up prefixes of one pass with the same extents placed
          below the new tile share one enumeration of tiles and
          unrollings, and no other count moves with it. *)
  shared_verdicts : int;
      (** bottom-up candidates whose outcome (row check failure, model
          rejection or score) was replayed from their group rather than
          computed: below the top pass, candidates of one prefix that
          differ only in the new level's loop order share one verdict,
          since that level holds no temporal loop yet. Each replay still
          counts in [evaluated] and the error counts as a fresh
          computation would (flushed as [optimizer.shared_verdicts]) *)
  wall_seconds : float;
}

type result = { mapping : Sun_mapping.Mapping.t; cost : Sun_cost.Model.cost; stats : stats }

type injection = Search_state.injection = No_injection | Corrupt_first_build
(** Test hook for the error accounting: [Corrupt_first_build] doubles one
    factor of the first candidate a search pass scores, so the row check
    fails exactly once ([stats.build_errors >= 1]) while the search still
    succeeds. *)

val optimize :
  ?config:config ->
  ?inject:injection ->
  ?seed:Sun_mapping.Mapping.level_mapping list ->
  Sun_tensor.Workload.t ->
  Sun_arch.Arch.t ->
  (result, string) Stdlib.result
(** Returns the best mapping found, its cost, and search statistics. Errors
    only when no valid mapping exists (e.g. a single tile element does not
    fit the innermost buffer). Build/evaluation rejections during the
    search are counted in [stats] and, when [Sun_telemetry.Metrics] is
    enabled, flushed once per call under the [optimizer.*] counter
    namespace (plus an [optimizer.search_s] latency histogram).

    [?seed] warm-starts the search: the given levels are built and scored
    before enumeration and, if legal, installed as the initial incumbent,
    so alpha-beta pruning has a finite alpha from the first pass. Seeded
    and unseeded searches prune with the same admissible bound; a seeded
    search adds two heuristics (a pruning margin once the seed is
    displaced, and a second refinement from the best enumerated mapping),
    so its EDP is usually, but not always, at most the unseeded one's.
    An illegal or unscorable seed is dropped
    silently (the search runs exactly as unseeded); seed rejections are
    {e not} counted in [stats.build_errors]/[stats.eval_errors], which
    remain reserved for candidates the search itself generated. Telemetry:
    [transfer.seeded], [transfer.seed_rejected] counters and a
    [transfer.alpha_ratio] histogram (seed EDP / final EDP, >= 1). *)

val tile_max_steps : int
(** Rungs per dimension of the tile ladders the search walks: every tile
    search passes it to {!Tile_tree.search} as [max_steps]. *)
