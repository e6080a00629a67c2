(** The Sunstone scheduler: level-by-level dataflow optimization.

    Bottom-up (the paper's default, Section V-A): starting at the innermost
    memory boundary and moving outward, each pass chooses the loop ordering
    of the level above the boundary (from the pruned ordering trie), the
    tile of the level below it (from the tiling-tree frontier over the
    reused operand's indexing dimensions), and the spatial unrolling of the
    fanout between them (maximal unrollings of the same reuse dimensions).
    Partial schedules are scored by completing them naively at DRAM and
    keeping the best [beam_width]; alpha-beta pruning discards prefixes
    whose admissible EDP lower bound ({!Sun_cost.Model.prefix_lower_bounds})
    already exceeds the best complete schedule found.

    Candidates are packed rows ({!Sun_mapping.Mapping.Rows}) that share
    every level they do not change; passes generate, deduplicate, bound,
    score and rank them as rows, and a [Mapping.t] is built only for the
    seed, each new incumbent, refinement moves and the result.

    Top-down (the Table VI ablation) runs the same per-level machinery from
    DRAM inward; because on-chip capacities are large, its per-pass frontier
    is far bigger and the partial-energy bound is weaker, which is exactly
    the effect Table VI reports. *)

type direction = Bottom_up | Top_down

type intra_order = Ordering_first | Tiling_first | Unrolling_first
(** Order in which the three per-level sub-optimizations are enumerated;
    the candidate set is the same but the examined-node count differs
    (Table VI, rows 1-3). *)

type config = {
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
          indistinguishable from pruning. Search candidates are packed rows
          checked by {!Sun_mapping.Mapping.Rows.valid}, which accepts
          exactly what [Mapping.make] does; refinement moves go through
          [Mapping.make] itself. *)
  eval_errors : int;
      (** structurally sound candidates the cost model rejected (capacity
          or fanout): [Model.score_rows], or [Model.score_ctx] for
          refinement moves *)
  wall_seconds : float;
}

type result = { mapping : Sun_mapping.Mapping.t; cost : Sun_cost.Model.cost; stats : stats }

type injection = No_injection | Corrupt_first_build
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

val tile_fit_test :
  Sun_tensor.Workload.t ->
  Sun_arch.Arch.t ->
  level:int ->
  grow:Sun_tensor.Workload.dim list ->
  int array ->
  bool
(** [tile_fit_test w arch ~level ~grow] is the search's tile-fit test at
    [level] with nothing placed below it: applied to a factor vector
    indexed like [grow], it tells whether that tile fits every partition
    of the level. For the allocation oracle and tests; the partial
    application sets up the search-scoped state once. *)
