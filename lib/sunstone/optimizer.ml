module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Probe = Sun_cost.Probe
module Listx = Sun_util.Listx
module Tel = Sun_telemetry.Metrics

type direction = Bottom_up | Top_down

type intra_order = Ordering_first | Tiling_first | Unrolling_first

type config = {
  direction : direction;
  intra : intra_order;
  beam_width : int;
  alpha_beta : bool;
  min_spatial_utilization : float;
  refine : bool;  (** post-search local refinement of the incumbent *)
  binding : Model.binding;
}

(* Unrolling-first is Table VI's first row — the smallest space of the
   bottom-up variants — and lets the spatial level claim extents before the
   tile frontier saturates the same reuse dimensions. *)
let default_config =
  {
    direction = Bottom_up;
    intra = Unrolling_first;
    beam_width = 12;
    alpha_beta = true;
    min_spatial_utilization = 0.5;
    refine = true;
    binding = Fun.id;
  }

type stats = {
  examined : int;
  evaluated : int;
  pruned_alpha_beta : int;
  build_errors : int;
  eval_errors : int;
  wall_seconds : float;
}

type result = { mapping : M.t; cost : Model.cost; stats : stats }

(* Test hook: force [Mapping.make] to fail exactly once so the error
   accounting is exercisable from tests without a pathological preset. *)
type injection = No_injection | Corrupt_first_build

(* ------------------------------------------------------------------ *)
(* Shared machinery                                                    *)
(* ------------------------------------------------------------------ *)

type search_state = {
  w : W.t;
  arch : A.t;
  cfg : config;
  ctx : Model.ctx;
  probe : Probe.t;  (** footprint probes, scoped to this search (DESIGN.md §3.7) *)
  dims : W.dim list;
  mutable fits : (float * Probe.axes array) array array;
      (** per level: (capacity, stored operands' resolved axes) per
          partition — arrays, so the fit test loops without list closures *)
  mutable fit_level : int;  (** [tile_fits] scratch, set per tile search: the level tiled *)
  mutable fit_base : int array;  (** extent already placed below it, per probe dim *)
  mutable fit_grow : int array;  (** probe dim of each grow dim, in grow order *)
  mutable examined : int;
  mutable evaluated : int;
  mutable pruned : int;
  mutable build_errors : int;  (** [Mapping.make] rejections, no longer silent *)
  mutable eval_errors : int;  (** [Model.evaluate_ctx] rejections, no longer silent *)
  mutable orders_kept : int;
  mutable orders_dropped : int;
  mutable tile_candidates : int;  (** tile-tree frontier tiles emitted *)
  mutable unroll_candidates : int;  (** spatial unroll choices emitted *)
  mutable inject : injection;
  mutable best : (M.t * Model.score) option;
      (** incumbent: scored on the allocation-free path, fully evaluated
          once at the end of the search *)
  mutable seeded : int;  (** transferred seeds installed as the incumbent *)
  mutable seed_rejected : int;  (** transferred seeds that failed to build or score *)
  mutable seed_edp : float;  (** EDP of the installed seed, for the alpha ratio *)
  mutable best_is_seed : bool;
      (** the incumbent is still the transferred seed — no enumerated
          candidate has displaced it *)
  mutable best_alt : (M.t * Model.score) option;
      (** best {e enumerated} mapping, tracked only when seeded: if the
          seed is never displaced, the post-search refinement also
          hill-climbs from here so a strong seed cannot strand the search
          at the seed's own local optimum ({!optimize}) *)
}

let ones dims = List.map (fun d -> (d, 1)) dims

let fill dims assoc =
  List.map (fun d -> match List.assoc_opt d assoc with Some f -> (d, f) | None -> (d, 1)) dims

let copy_levels levels = Array.map (fun lm -> lm) levels

let initial_levels st =
  Array.init (A.num_levels st.arch) (fun _ ->
      { M.temporal = ones st.dims; order = st.dims; spatial = ones st.dims })

(* Per level: the partitions to check and the axes of the operands each
   one holds, resolved once so the tile-tree fit test is a tight loop. *)
let fit_table st =
  Array.init (A.num_levels st.arch) (fun level ->
      let lvl = A.level st.arch level in
      if lvl.A.unbounded then [||]
      else
        Array.of_list
          (List.map
             (fun (p : A.partition) ->
               let ops =
                 List.filter
                   (fun (op : W.operand) ->
                     match A.partition_for lvl ~role:(st.cfg.binding op.W.name) with
                     | Some p' -> p'.A.part_name = p.A.part_name
                     | None -> false)
                   st.w.W.operands
               in
               ( float_of_int p.A.capacity_words +. 1e-9,
                 Array.of_list
                   (List.map (fun (op : W.operand) -> Probe.axes st.probe ~op:op.W.name) ops) ))
             lvl.A.partitions))

(* Does the tile with the given grow-dim factors fit every partition of
   [st.fit_level]? Each grow dim's extent is its base times its factor;
   the other dims were loaded into the probe's extent vector by
   [set_tile_scope]. [Probe.fits] sums footprints bit-identically to
   [Listx.sum_by W.footprint]. The loops are index-driven over the
   prebuilt arrays, and the local refs below are compiled to registers
   (Simplif eliminates non-escaping refs). *)
(* sunstone-hot *)
let tile_fits st factors =
  let ext = Probe.extents st.probe and base = st.fit_base and grow = st.fit_grow in
  for g = 0 to Array.length grow - 1 do
    let d = Array.unsafe_get grow g in
    ext.(d) <- Array.unsafe_get base d * factors.(g)
  done;
  let groups = st.fits.(st.fit_level) in
  (* sunstone-lint: allow SA070 non-escaping refs are Simplif-eliminated, no allocation *)
  let ok = ref true and gi = ref 0 in
  while !ok && !gi < Array.length groups do
    let capacity, ops = groups.(!gi) in
    ok := Probe.fits st.probe ops ~capacity;
    incr gi
  done;
  !ok

(* Point [tile_fits] at tiles of [level] over [grow]: every dim starts
   from its [base] extent (indexed by probe dim), and the tile multiplies
   the grow dims' extents by its factors. *)
let set_tile_scope st ~level ~base ~grow =
  Array.blit base 0 (Probe.extents st.probe) 0 (Array.length base);
  st.fit_level <- level;
  st.fit_base <- base;
  st.fit_grow <- Array.of_list (List.map (Probe.dim_index st.probe) grow)

(* The frontier of fitting tiles at [level] over [grow]. *)
let search_tiles st ~level ~base ~grow ~remaining =
  set_tile_scope st ~level ~base ~grow;
  let out = Tile_tree.search ~max_steps:20 ~grow_dims:grow ~remaining ~fits:(tile_fits st) () in
  st.examined <- st.examined + out.Tile_tree.explored;
  out.Tile_tree.frontier

(* Breaking exact dim coverage (doubling one temporal factor) makes
   [Mapping.make] reject the candidate, which on natural search paths never
   happens — every factor choice divides the bounds exactly. *)
let corrupt_first_build levels =
  match levels with
  | [] -> []
  | lm :: rest ->
    let temporal =
      match lm.M.temporal with (d, f) :: tl -> (d, f * 2) :: tl | [] -> lm.M.temporal
    in
    { lm with M.temporal } :: rest

let build st levels =
  let levels_list =
    match st.inject with
    | No_injection -> Array.to_list levels
    | Corrupt_first_build ->
      st.inject <- No_injection;
      corrupt_first_build (Array.to_list levels)
  in
  match M.make st.w levels_list with
  | Error _ ->
    st.build_errors <- st.build_errors + 1;
    None
  | Ok m ->
    st.evaluated <- st.evaluated + 1;
    Some m

(* [s] may be the context-owned record [Model.score_ctx] overwrites on the
   next call, so adopting it as the incumbent copies. *)
(* sunstone-hot *)
let update_best st m (s : Model.score) =
  match st.best with
  | Some (_, best) when best.Model.s_edp <= s.Model.s_edp -> ()
  | _ ->
    (* sunstone-lint: allow SA070 improvement path: one copied incumbent per new best *)
    st.best <- Some (m, Model.copy_score s);
    st.best_is_seed <- false

(* Track the best mapping the search itself produced, separately from the
   incumbent: a transferred seed can be strong enough that no enumerated
   candidate ever displaces it, and the final refinement then never sees
   the enumeration's own best starting point. Only seeded searches need
   it, so unseeded ones skip the bookkeeping (one integer test per score). *)
(* sunstone-hot *)
let update_best_alt st m (s : Model.score) =
  if st.seeded > 0 then
    match st.best_alt with
    | Some (_, b) when b.Model.s_edp <= s.Model.s_edp -> ()
    | _ ->
      (* sunstone-lint: allow SA070 improvement path: one copied alternative per new best *)
      st.best_alt <- Some (m, Model.copy_score s)

(* Score a structurally complete mapping; updates the incumbent. Build and
   evaluation rejections are counted, never swallowed: a mapspace bug must
   look different from legitimate pruning in the stats. Scoring runs on the
   allocation-free [score_ctx] path: same energy/cycles/EDP bits as a full
   evaluation, no transfer/breakdown assembly. *)
let score st levels =
  match build st levels with
  | None -> None
  | Some m -> (
    match Model.score_ctx st.ctx m with
    | Error _ ->
      st.eval_errors <- st.eval_errors + 1;
      None
    | Ok s ->
      update_best st m s;
      update_best_alt st m s;
      Some s)

(* Batch-score sibling candidates through one [Model.score_batch_ctx]
   call. Builds, scores and incumbent updates all happen in list order —
   the same sequence the scalar [score] would produce, so tie-breaking and
   stats are unchanged. Only passes with no incumbent-dependent pruning
   between siblings may batch (alpha-beta consults the incumbent mid-pass
   and must stay sequential). Returns [(tag, score)] for the survivors. *)
let score_batch st tagged =
  let built =
    List.filter_map
      (fun (tag, levels) ->
        match build st levels with None -> None | Some m -> Some (tag, m))
      tagged
  in
  let results = Model.score_batch_ctx st.ctx (Array.of_list (List.map snd built)) in
  List.concat
    (List.mapi
       (fun i (tag, m) ->
         match results.(i) with
         | Error _ ->
           st.eval_errors <- st.eval_errors + 1;
           []
         | Ok s ->
           update_best st m s;
           update_best_alt st m s;
           [ (tag, s) ])
       built)

(* Install a transferred mapping (a rescaled neighbor from the cache) as
   the initial incumbent, so the very first alpha-beta tests already have a
   finite alpha. The seed comes from a *different* request's search, so a
   rejection here is the expected silent fallback, not a mapspace bug: it
   stays out of [build_errors]/[eval_errors] and the search proceeds from
   scratch exactly as if no seed had been offered. *)
let install_seed st levels_list =
  match M.make st.w levels_list with
  | Error _ -> st.seed_rejected <- st.seed_rejected + 1
  | Ok m -> (
    match Model.score_ctx st.ctx m with
    | Error _ -> st.seed_rejected <- st.seed_rejected + 1
    | Ok s ->
      st.seeded <- st.seeded + 1;
      st.seed_edp <- s.Model.s_edp;
      update_best st m s;
      st.best_is_seed <- true)

(* The grow dimensions of the Tiling / Unrolling Principles: the indexing
   dimensions of the operand temporally reused at the boundary. With no
   reused operand the principles give no restriction. *)
let grow_dims_of st = function
  | Some op_name -> W.indexing_dims (W.find_operand st.w op_name)
  | None -> st.dims

let operand_choices (o : Order_trie.candidate) =
  match o.Order_trie.reused_operands with [] -> [ None ] | ops -> List.map (fun x -> Some x) ops

(* ------------------------------------------------------------------ *)
(* Bottom-up                                                           *)
(* ------------------------------------------------------------------ *)

(* Complete a prefix by dumping every unplaced factor at DRAM. *)
let complete_at_top st levels =
  let completed = copy_levels levels in
  let top = A.num_levels st.arch - 1 in
  let m = { M.levels = completed } in
  let residual =
    List.map (fun d -> (d, W.bound st.w d / M.tile_at m ~level:top d)) st.dims
  in
  let top_lm = completed.(top) in
  let temporal =
    List.map
      (fun (d, f) ->
        let cur = match List.assoc_opt d top_lm.M.temporal with Some c -> c | None -> 1 in
        (d, cur * f))
      residual
  in
  completed.(top) <- { top_lm with M.temporal };
  completed

(* A prefix with [edp_lb > incumbent * prune_margin] is cut once the seed
   has been displaced (see the margin computation below). 0.8 is the
   empirical knee on the ResNet-18/Inception-v3 transfer benchmark: it cuts
   warm evaluations by a further ~6 points while every layer's final EDP
   stays equal or better than the cold search's; tighter margins (0.75 and
   below) start pruning subtrees holding small genuine improvements. *)
let prune_margin = 0.8

(* Alpha-beta (Section V-C): prune a prefix whose optimistic EDP — the
   product of {!Model.prefix_lower_bounds}' energy and cycles bounds —
   already exceeds the incumbent's EDP. Both bounds are admissible, so on
   its own the test never cuts a prefix holding a better completion
   ([sunstone check --admissibility] pins this). Bottom-up the test is
   sharp: with high reuse most of the energy is charged at the lowest
   levels, so the committed energy sits close to the final energy. *)
let alpha_beta_prunes st ~fixed_levels levels =
  st.cfg.alpha_beta
  &&
  match st.best with
  | None -> false
  | Some (_, best) ->
    let energy_lb, cycles_lb = Model.prefix_lower_bounds st.ctx ~fixed_levels { M.levels } in
    (* Seeded-only pruning margin, gated on displacement: while the
       transferred seed is still the incumbent the test stays exact, so
       the first enumerated improvement over the seed can never be
       margin-pruned — a seed that happens to sit within a few percent
       of the true optimum must not freeze the search at its own value.
       Once some candidate has displaced the seed, prefixes whose
       optimistic bound already lands within [prune_margin] of the
       incumbent are dropped: their best case is a marginal win, and
       spending full completions on them is where a warm search burns
       the evaluations the seed was meant to save. This is the one
       inadmissible rule; unseeded searches never use it. *)
    let margin = if st.seeded > 0 && not st.best_is_seed then prune_margin else 1.0 in
    let prunes = energy_lb *. cycles_lb > best.Model.s_edp *. margin in
    if prunes then st.pruned <- st.pruned + 1;
    prunes

(* Candidates for one bottom-up pass at boundary [k]: level-k ordering,
   level-(k-1) tile, level-k spatial unrolling. *)
let bottom_up_pass st ~orders ~k prefix_levels =
  (* everything already fixed strictly below the new tile, including the
     spatial factors of levels <= k-1, indexed by probe dim *)
  let placed =
    Array.of_list
      (List.map (fun d -> M.tile_at { M.levels = prefix_levels } ~level:(k - 1) d) st.dims)
  in
  let remaining d = W.bound st.w d / placed.(Probe.dim_index st.probe d) in
  let fanout = (A.level st.arch k).A.fanout in
  let results = ref [] in
  let emit_candidate ~tile ~order ~spatial =
    st.examined <- st.examined + 1;
    let levels = copy_levels prefix_levels in
    levels.(k - 1) <- { (levels.(k - 1)) with M.temporal = fill st.dims tile };
    levels.(k) <- { (levels.(k)) with M.order = order; M.spatial = fill st.dims spatial };
    results := levels :: !results
  in
  (* At capacious levels the maximal-tile frontier can be huge; keep the
     largest-volume tiles (more volume = fewer refills from above, the same
     monotonicity the Tiling Principle exploits). *)
  let cap_frontier frontier =
    let max_keep = 40 in
    if List.length frontier <= max_keep then frontier
    else begin
      let volume a = List.fold_left (fun acc (_, f) -> acc * f) 1 a in
      let sorted = List.sort (fun a b -> compare (volume b) (volume a)) frontier in
      Listx.take max_keep sorted
    end
  in
  (* Distinct orders often share the reused operand, hence the same grow
     set; tile and unroll candidate sets depend only on that set (plus any
     already-chosen factors) for a given prefix, so memoize them per pass. *)
  let tile_memo : (string, Tile_tree.assignment list) Hashtbl.t = Hashtbl.create 8 in
  let unroll_memo : (string, Tile_tree.assignment list) Hashtbl.t = Hashtbl.create 8 in
  let memo_key grow chosen =
    String.concat "," grow ^ "/"
    ^ String.concat "," (List.map (fun (d, f) -> d ^ string_of_int f) chosen)
  in
  let tiles_for grow ~chosen ~remaining =
    let key = memo_key grow chosen in
    match Hashtbl.find_opt tile_memo key with
    | Some tiles -> tiles
    | None ->
      let tiles = cap_frontier (search_tiles st ~level:(k - 1) ~base:placed ~grow ~remaining) in
      st.tile_candidates <- st.tile_candidates + List.length tiles;
      Hashtbl.add tile_memo key tiles;
      tiles
  in
  let unrolls_for grow ~chosen ~remaining =
    let key = memo_key grow chosen in
    match Hashtbl.find_opt unroll_memo key with
    | Some unrolls -> unrolls
    | None ->
      let out =
        Unroll.candidates ~fanout ~dims:grow ~remaining
          ~min_utilization:st.cfg.min_spatial_utilization ()
      in
      st.examined <- st.examined + out.Unroll.explored;
      st.unroll_candidates <- st.unroll_candidates + List.length out.Unroll.candidates;
      Hashtbl.add unroll_memo key out.Unroll.candidates;
      out.Unroll.candidates
  in
  let expand_order_op (o : Order_trie.candidate) op_choice =
    let grow = grow_dims_of st op_choice in
    match st.cfg.intra with
    | Ordering_first | Tiling_first ->
      let tiles = tiles_for grow ~chosen:[] ~remaining in
      List.iter
        (fun tile ->
          let after_tile d = remaining d / Tile_tree.factor_of tile d in
          let unrolls = unrolls_for grow ~chosen:tile ~remaining:after_tile in
          List.iter
            (fun spatial -> emit_candidate ~tile ~order:o.Order_trie.order ~spatial)
            unrolls)
        tiles
    | Unrolling_first ->
      let unrolls = unrolls_for grow ~chosen:[] ~remaining in
      List.iter
        (fun spatial ->
          let rem d = remaining d / Tile_tree.factor_of spatial d in
          let tiles = tiles_for grow ~chosen:spatial ~remaining:rem in
          List.iter (fun tile -> emit_candidate ~tile ~order:o.Order_trie.order ~spatial) tiles)
        unrolls
  in
  List.iter (fun o -> List.iter (expand_order_op o) (operand_choices o)) orders;
  !results

(* Spatial unrolling below the innermost memory (e.g. Simba's vector
   lanes): one candidate set per protected operand. *)
let lane_pass st prefix_levels =
  let fanout = (A.level st.arch 0).A.fanout in
  if fanout <= 1 then [ prefix_levels ]
  else begin
    let results = ref [] in
    List.iter
      (fun (op : W.operand) ->
        let grow = W.indexing_dims op in
        let out =
          Unroll.candidates ~fanout ~dims:grow
            ~remaining:(fun d -> W.bound st.w d)
            ~min_utilization:st.cfg.min_spatial_utilization ()
        in
        st.examined <- st.examined + out.Unroll.explored;
        st.unroll_candidates <- st.unroll_candidates + List.length out.Unroll.candidates;
        List.iter
          (fun spatial ->
            st.examined <- st.examined + 1;
            let levels = copy_levels prefix_levels in
            levels.(0) <- { (levels.(0)) with M.spatial = fill st.dims spatial };
            results := levels :: !results)
          out.Unroll.candidates)
      st.w.W.operands;
    !results
  end

let dedup_prefixes prefixes =
  let seen = Hashtbl.create 64 in
  let buf = Buffer.create 128 in
  let canonical levels =
    Buffer.clear buf;
    Array.iter
      (fun lm ->
        List.iter
          (fun (_, f) ->
            Buffer.add_string buf (string_of_int f);
            Buffer.add_char buf ',')
          lm.M.temporal;
        Buffer.add_char buf '|';
        List.iter
          (fun d ->
            Buffer.add_string buf d;
            Buffer.add_char buf ',')
          lm.M.order;
        Buffer.add_char buf '|';
        List.iter
          (fun (_, f) ->
            Buffer.add_string buf (string_of_int f);
            Buffer.add_char buf ',')
          lm.M.spatial;
        Buffer.add_char buf ';')
      levels;
    Buffer.contents buf
  in
  List.filter
    (fun levels ->
      let key = canonical levels in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    prefixes

(* Score prefixes by their naive completion and keep the beam. The naive
   completion is a poor predictor of how a spatial-unrolling style plays
   out at the upper levels, so the beam is diversity-preserving: the best
   prefix of every distinct spatial signature is seated first, and the
   remaining slots go to the global ranking. *)
let select_beam st ~fixed_levels prefixes =
  let scored =
    if fixed_levels = 0 && st.best = None then
      (* no incumbent yet, hence no alpha-beta below the first boundary:
         the sibling completions batch through one scoring call. A
         transferred seed makes [st.best] finite before this first pass,
         which routes seeded searches through the pruning path below. *)
      List.map
        (fun (levels, s) -> (levels, s.Model.s_edp))
        (score_batch st (List.map (fun levels -> (levels, complete_at_top st levels)) prefixes))
    else
      (* the incumbent tightens mid-pass and feeds the alpha-beta test of
         the next prefix, so this path stays candidate-by-candidate *)
      List.filter_map
        (fun levels ->
          if alpha_beta_prunes st ~fixed_levels levels then None
          else
            match score st (complete_at_top st levels) with
            | Some s -> Some (levels, s.Model.s_edp)
            | None -> None)
        prefixes
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare a b) scored in
  let spatial_key levels =
    let buf = Buffer.create 32 in
    Array.iter
      (fun lm ->
        List.iter
          (fun (_, f) ->
            Buffer.add_string buf (string_of_int f);
            Buffer.add_char buf ',')
          lm.M.spatial;
        Buffer.add_char buf ';')
      levels;
    Buffer.contents buf
  in
  let seen_keys = Hashtbl.create 16 in
  let diverse, rest =
    List.partition
      (fun (levels, _) ->
        let key = spatial_key levels in
        if Hashtbl.mem seen_keys key then false
        else begin
          Hashtbl.add seen_keys key ();
          true
        end)
      sorted
  in
  List.map fst (Listx.take st.cfg.beam_width (diverse @ rest))

(* Order candidates come with the trie's visit/prune tallies, so the
   kept/dropped split the paper's Table VI accounts for is observable. *)
let order_candidates st =
  let orders, ostats = Order_trie.candidates_with_stats st.w in
  st.orders_kept <- st.orders_kept + List.length orders;
  st.orders_dropped <- st.orders_dropped + ostats.Order_trie.nodes_pruned;
  orders

let optimize_bottom_up st =
  let orders = order_candidates st in
  let top = A.num_levels st.arch - 1 in
  let start = [ initial_levels st ] in
  let after_lanes =
    let cands = List.concat_map (lane_pass st) start in
    select_beam st ~fixed_levels:0 (dedup_prefixes cands)
  in
  let rec run k prefixes =
    if k > top then prefixes
    else begin
      let cands = List.concat_map (bottom_up_pass st ~orders ~k) prefixes in
      let kept = select_beam st ~fixed_levels:k (dedup_prefixes cands) in
      run (k + 1) (if kept = [] then prefixes else kept)
    end
  in
  ignore (run 1 (if after_lanes = [] then start else after_lanes))

(* ------------------------------------------------------------------ *)
(* Top-down (Table VI ablation)                                        *)
(* ------------------------------------------------------------------ *)

(* In the top-down walk the running state per prefix is the aggregate
   extent [A_{k-1}] still to be laid out below the current boundary; it is
   carried as the temporal factor of level k-1 in the prefix and split
   further by the next pass. *)
let top_down_pass st ~orders ~k prefix_levels =
  (* invariant: the aggregate extent still to be laid out at level k and
     below sits as level k's temporal factor; this pass splits it into
     t_k x s_k x A_{k-1} *)
  let below d = M.temporal_factor { M.levels = prefix_levels } ~level:k d in
  let all_ones = Array.make (List.length st.dims) 1 in
  let fanout = (A.level st.arch k).A.fanout in
  let results = ref [] in
  let emit ~order ~spatial ~tile =
    st.examined <- st.examined + 1;
    let levels = copy_levels prefix_levels in
    let t_k d =
      below d / (Tile_tree.factor_of spatial d * Tile_tree.factor_of tile d)
    in
    levels.(k) <-
      {
        M.order;
        M.spatial = fill st.dims spatial;
        M.temporal = List.map (fun d -> (d, t_k d)) st.dims;
      };
    levels.(k - 1) <- { (levels.(k - 1)) with M.temporal = fill st.dims tile };
    results := levels :: !results
  in
  let expand (o : Order_trie.candidate) op_choice =
    let grow = grow_dims_of st op_choice in
    let out_unroll =
      Unroll.candidates ~fanout ~dims:grow ~remaining:below
        ~min_utilization:st.cfg.min_spatial_utilization ()
    in
    st.examined <- st.examined + out_unroll.Unroll.explored;
    st.unroll_candidates <- st.unroll_candidates + List.length out_unroll.Unroll.candidates;
    List.iter
      (fun spatial ->
        let rem d = below d / Tile_tree.factor_of spatial d in
        (* the level-k spatial factor distributes across level-(k-1)
           instances and does not occupy any single buffer *)
        let tiles = search_tiles st ~level:(k - 1) ~base:all_ones ~grow:st.dims ~remaining:rem in
        st.tile_candidates <- st.tile_candidates + List.length tiles;
        List.iter (fun tile -> emit ~order:o.Order_trie.order ~spatial ~tile) tiles)
      out_unroll.Unroll.candidates
  in
  List.iter (fun o -> List.iter (expand o) (operand_choices o)) orders;
  !results

(* Split the innermost aggregate over the lane fanout at the end of a
   top-down walk. *)
let lane_pass_split st levels =
  let fanout = (A.level st.arch 0).A.fanout in
  if fanout <= 1 then [ levels ]
  else begin
    let results = ref [] in
    let below d =
      match List.assoc_opt d levels.(0).M.temporal with Some f -> f | None -> 1
    in
    List.iter
      (fun (op : W.operand) ->
        let grow = W.indexing_dims op in
        let out =
          Unroll.candidates ~fanout ~dims:grow ~remaining:below
            ~min_utilization:st.cfg.min_spatial_utilization ()
        in
        st.examined <- st.examined + out.Unroll.explored;
        st.unroll_candidates <- st.unroll_candidates + List.length out.Unroll.candidates;
        List.iter
          (fun spatial ->
            st.examined <- st.examined + 1;
            let ls = copy_levels levels in
            let temporal =
              List.map (fun d -> (d, below d / Tile_tree.factor_of spatial d)) st.dims
            in
            ls.(0) <- { (ls.(0)) with M.spatial = fill st.dims spatial; M.temporal = temporal };
            results := ls :: !results)
          out.Unroll.candidates)
      st.w.W.operands;
    !results
  end

(* Completion for a top-down prefix: levels below the boundary keep the
   aggregate at level k-1, which is already structurally complete. *)
let optimize_top_down st =
  let orders = order_candidates st in
  let top = A.num_levels st.arch - 1 in
  let start =
    let levels = initial_levels st in
    levels.(top) <-
      { (levels.(top)) with M.temporal = List.map (fun (d, b) -> (d, b)) st.w.W.dims };
    [ levels ]
  in
  let select prefixes =
    (* rank by energy: the spatial unrolling of the inner passes is still
       unassigned, so every prefix shares the same (serial) cycle count and
       EDP cannot discriminate *)
    let scored =
      List.map
        (fun (levels, s) -> (levels, s.Model.s_energy_pj))
        (score_batch st (List.map (fun levels -> (levels, copy_levels levels)) prefixes))
    in
    let sorted = List.sort (fun (_, a) (_, b) -> compare a b) scored in
    List.map fst (Listx.take st.cfg.beam_width sorted)
  in
  let rec run k prefixes =
    if k < 1 then prefixes
    else begin
      let cands = List.concat_map (top_down_pass st ~orders ~k) prefixes in
      let kept = select (dedup_prefixes cands) in
      run (k - 1) (if kept = [] then prefixes else kept)
    end
  in
  let final = run top start in
  (* split the innermost aggregate over the lane fanout; the splits of one
     prefix are sibling candidates, batched through one scoring call *)
  List.iter
    (fun levels ->
      ignore (score_batch st (List.map (fun ls -> ((), ls)) (lane_pass_split st levels))))
    final

(* ------------------------------------------------------------------ *)
(* Local refinement                                                    *)
(* ------------------------------------------------------------------ *)

(* Hill-climb around the incumbent: move one prime factor of one dimension
   between two temporal levels, or swap two adjacent loops in a level's
   order; accept any EDP improvement and repeat to a (bounded) fixpoint.
   This recovers the few-percent mappings that sit just outside the
   per-level reuse-dimension restriction. *)
let refine st =
  let nlevels = A.num_levels st.arch in
  let primes_of f = List.map fst (Sun_util.Factor.prime_factorization f) in
  let factor assoc d = match List.assoc_opt d assoc with Some f -> f | None -> 1 in
  let set assoc d f = (d, f) :: List.remove_assoc d assoc in
  let try_improve levels =
    st.examined <- st.examined + 1;
    ignore (score st levels)
  in
  (* First-improvement hill-climb: every move is applied to the *current*
     incumbent, which [score] may have just replaced — the old round-start
     snapshot went stale the moment a move was accepted, and moves built
     from it both wasted evaluations on superseded neighborhoods and, when
     the snapshot's factor no longer divided the incumbent's, produced
     truncated products that [Mapping.make] rejected (silently inflating
     [build_errors]/[examined]). The prime lists still come from the
     round-start snapshot, so the divisibility pre-check below skips any
     move whose source factor has since moved away instead of building a
     broken candidate: refine contributes zero build errors by
     construction. *)
  let move_factor d p l l' =
    match st.best with
    | None -> ()
    | Some (m, _) ->
      let base = m.M.levels in
      let src = factor base.(l).M.temporal d in
      if src > 1 && src mod p = 0 then begin
        let levels = copy_levels base in
        levels.(l) <- { (levels.(l)) with M.temporal = set levels.(l).M.temporal d (src / p) };
        levels.(l') <-
          { (levels.(l')) with
            M.temporal = set levels.(l').M.temporal d (factor levels.(l').M.temporal d * p) };
        try_improve levels
      end
  in
  let swap_order l i =
    match st.best with
    | None -> ()
    | Some (m, _) ->
      let base = m.M.levels in
      let ord = Array.of_list base.(l).M.order in
      if i + 1 < Array.length ord then begin
        let ord' = Array.copy ord in
        let tmp = ord'.(i) in
        ord'.(i) <- ord'.(i + 1);
        ord'.(i + 1) <- tmp;
        let levels = copy_levels base in
        levels.(l) <- { (levels.(l)) with M.order = Array.to_list ord' };
        try_improve levels
      end
  in
  let ndims = List.length st.dims in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < 8 do
    incr rounds;
    let before = match st.best with Some (_, c) -> c.Model.s_edp | None -> infinity in
    (match st.best with
    | None -> ()
    | Some (m, _) ->
      let snapshot = m.M.levels in
      (* factor moves between temporal levels *)
      for l = 0 to nlevels - 1 do
        List.iter
          (fun d ->
            List.iter
              (fun p ->
                for l' = 0 to nlevels - 1 do
                  if l' <> l then move_factor d p l l'
                done)
              (primes_of (factor snapshot.(l).M.temporal d)))
          st.dims
      done;
      (* adjacent order swaps *)
      for l = 0 to nlevels - 1 do
        for i = 0 to ndims - 2 do
          swap_order l i
        done
      done);
    let after = match st.best with Some (_, c) -> c.Model.s_edp | None -> infinity in
    if after >= before *. 0.9999 then continue_ := false
  done

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* The search loops count into [st]'s plain mutable fields and the totals
   are flushed to the telemetry registry once per call: the hot paths pay
   nothing for instrumentation beyond what the stats already cost, which is
   what keeps the disabled-telemetry overhead inside the bench's budget. *)
let flush_telemetry st wall_seconds =
  if Tel.enabled () then begin
    Tel.count "optimizer.searches" 1;
    Tel.count "optimizer.examined" st.examined;
    Tel.count "optimizer.evaluated" st.evaluated;
    Tel.count "optimizer.pruned_alpha_beta" st.pruned;
    Tel.count "optimizer.build_errors" st.build_errors;
    Tel.count "optimizer.eval_errors" st.eval_errors;
    Tel.count "optimizer.orders_kept" st.orders_kept;
    Tel.count "optimizer.orders_dropped" st.orders_dropped;
    Tel.count "optimizer.tile_candidates" st.tile_candidates;
    Tel.count "optimizer.unroll_candidates" st.unroll_candidates;
    Tel.observe (Tel.histogram "optimizer.search_s") wall_seconds;
    (* transfer.* lives outside the optimizer.* namespace: seed availability
       depends on cross-request cache state, which the jobs-N counter-parity
       gates must not see *)
    if st.seeded > 0 then Tel.count "transfer.seeded" st.seeded;
    if st.seed_rejected > 0 then Tel.count "transfer.seed_rejected" st.seed_rejected;
    match st.best with
    | Some (_, best) when st.seeded > 0 && best.Model.s_edp > 0.0 ->
      (* >= 1.0: how much the search improved on the transferred alpha *)
      Tel.observe (Tel.histogram "transfer.alpha_ratio") (st.seed_edp /. best.Model.s_edp)
    | _ -> ()
  end

let create_state ~config ~inject w arch =
  let st =
    {
      w;
      arch;
      cfg = config;
      ctx = Model.context ~binding:config.binding w arch;
      probe = Probe.create w;
      dims = W.dim_names w;
      fits = [||];
      fit_level = 0;
      fit_base = [||];
      fit_grow = [||];
      examined = 0;
      evaluated = 0;
      pruned = 0;
      build_errors = 0;
      eval_errors = 0;
      orders_kept = 0;
      orders_dropped = 0;
      tile_candidates = 0;
      unroll_candidates = 0;
      inject;
      best = None;
      seeded = 0;
      seed_rejected = 0;
      seed_edp = nan;
      best_is_seed = false;
      best_alt = None;
    }
  in
  st.fits <- fit_table st;
  st

let tile_fit_test w arch ~level ~grow =
  let st = create_state ~config:default_config ~inject:No_injection w arch in
  set_tile_scope st ~level ~base:(Array.make (List.length st.dims) 1) ~grow;
  tile_fits st

let optimize ?(config = default_config) ?(inject = No_injection) ?seed w arch =
  let timer = Sun_util.Stopwatch.start () in
  let st = create_state ~config ~inject w arch in
  Option.iter (install_seed st) seed;
  (match config.direction with
  | Bottom_up -> optimize_bottom_up st
  | Top_down -> optimize_top_down st);
  let seed_survived = st.best_is_seed in
  (* captured before the refinement below: refining the seed scores
     seed-neighborhood mappings through [update_best_alt], which would
     overwrite the enumeration's best with a seed lookalike *)
  let enumerated_best = st.best_alt in
  if config.refine then refine st;
  (* A seed no enumerated candidate displaced still gets refined above, but
     hill-climbing from the seed alone can strand the result at the seed's
     own local optimum while the unseeded search — refining from *its*
     winner — would have done better. Also refine from the enumeration's
     best and keep whichever endpoint wins. Together with the pruning
     margin this is heuristic: a seeded result is usually, not always, at
     least as good as the same search without the seed. *)
  (match (seed_survived, st.best, enumerated_best) with
  | true, Some (_, inc_s), Some (alt_m, alt_s)
    when config.refine && alt_s.Model.s_edp <= inc_s.Model.s_edp *. 1.5 ->
    (* only when the enumeration's endpoint is competitive (within 50%)
       with the refined seed: a far-worse endpoint rarely refines past the
       seed, and spending the transferred savings on its hill-climb would
       cancel the very reduction the seed bought *)
    let incumbent = st.best in
    st.best <- Some (alt_m, alt_s);
    refine st;
    (match (incumbent, st.best) with
    | Some (_, s0), Some (_, s1) when s0.Model.s_edp < s1.Model.s_edp -> st.best <- incumbent
    | _ -> ())
  | _ -> ());
  (* the search scored candidates on the allocation-free path; the single
     full evaluation of the incumbent rebuilds transfers and breakdown
     (bit-identical energy/cycles/EDP to its score) *)
  let final =
    match st.best with
    | None -> None
    | Some (mapping, _) -> (
      match Model.evaluate_ctx st.ctx mapping with
      | Ok cost -> Some (mapping, cost)
      | Error _ -> None)
  in
  let wall_seconds = Sun_util.Stopwatch.elapsed_s timer in
  flush_telemetry st wall_seconds;
  match final with
  | None -> Error "no valid mapping found (does a unit tile fit the innermost buffers?)"
  | Some (mapping, cost) ->
    Ok
      {
        mapping;
        cost;
        stats =
          {
            examined = st.examined;
            evaluated = st.evaluated;
            pruned_alpha_beta = st.pruned;
            build_errors = st.build_errors;
            eval_errors = st.eval_errors;
            wall_seconds;
          };
      }
