module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module Rows = M.Rows
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
  dim_array : W.dim array;  (** [dims], for {!M.dim_position} *)
  bounds : int array;  (** each dim's bound, by dim position: the rows' products *)
  grows : W.dim list array;
      (** the distinct grow-dim lists an operand choice can select
          ({!grow_index}), the unrestricted one first; a list's index
          keys the per-pass tile and unroll memos *)
  grow_pos : int array array;  (** per grow list, each dim's position in [dims] *)
  grow_of_op : (string * int) list;  (** operand name -> index into [grows] *)
  mutable fits : (float * Probe.axes array) array array;
      (** per level: (capacity, stored operands' resolved axes) per
          partition — arrays, so the fit test loops without list closures *)
  mutable fit_level : int;  (** [tile_fits] scratch, set per tile search: the level tiled *)
  mutable fit_base : int array;  (** extent already placed below it, per probe dim *)
  mutable fit_grow : int array;  (** probe dim of each grow dim, in grow order *)
  mutable examined : int;
  mutable evaluated : int;
  mutable pruned : int;
  mutable build_errors : int;  (** candidates breaking [Mapping.make]'s rules, no longer silent *)
  mutable eval_errors : int;  (** cost-model rejections, no longer silent *)
  mutable orders_kept : int;
  mutable orders_dropped : int;
  mutable tile_candidates : int;  (** tile-tree frontier tiles emitted *)
  mutable unroll_candidates : int;  (** spatial unroll choices emitted *)
  mutable inject : injection;
  mutable best : (M.t * Model.score) option;
      (** incumbent: scored on the allocation-free path, built as a
          [Mapping.t] when it takes the slot, fully evaluated once at the
          end of the search *)
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

(* Every factor 1 and the identity order, one shared row each. *)
let initial_rows st =
  let n = Array.length st.dim_array and nl = A.num_levels st.arch in
  let ones = Array.make n 1 in
  {
    Rows.temporal = Array.make nl ones;
    spatial = Array.make nl ones;
    order = Array.make nl (Array.init n Fun.id);
  }

(* [rows] with entry [l] replaced: candidates share every row they do not
   change, and no row is mutated once built. *)
let set rows l row =
  let a = Array.copy rows in
  a.(l) <- row;
  a

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

let tile_max_steps = 20

(* The frontier of fitting tiles at [level] over [grow]. [tile_fits] is
   monotone: a footprint only grows with a factor. *)
let search_tiles st ~level ~base ~grow ~remaining =
  set_tile_scope st ~level ~base ~grow;
  let out =
    Tile_tree.search ~max_steps:tile_max_steps ~grow_dims:grow ~remaining ~fits:(tile_fits st) ()
  in
  st.examined <- st.examined + out.Tile_tree.explored;
  out.Tile_tree.frontier

(* Breaking exact dim coverage (doubling one temporal factor) makes the
   row check reject the candidate, which on natural search paths never
   happens — every factor choice divides the bounds exactly. *)
let corrupt_first_build (c : Rows.t) =
  if Array.length c.Rows.temporal = 0 || Array.length c.Rows.temporal.(0) = 0 then c
  else begin
    let row = Array.copy c.Rows.temporal.(0) in
    row.(0) <- row.(0) * 2;
    { c with Rows.temporal = set c.Rows.temporal 0 row }
  end

(* Would a score take the incumbent (or best-alternative) slot? *)
let improves slot (s : Model.score) =
  match slot with Some (_, b) -> not (b.Model.s_edp <= s.Model.s_edp) | None -> true

(* Install [m] in the slots [s] improves: the incumbent, and when seeded
   the best {e enumerated} mapping, which is tracked separately because a
   transferred seed can be strong enough that no enumerated candidate ever
   displaces it, and the final refinement then never sees the
   enumeration's own best starting point. [s] may be the context-owned
   record [Model.score_rows] overwrites on the next call, so each slot
   keeps a copy. *)
let adopt st ~best ~alt m (s : Model.score) =
  if best then begin
    st.best <- Some (m, Model.copy_score s);
    st.best_is_seed <- false
  end;
  if alt then st.best_alt <- Some (m, Model.copy_score s)

(* Score a structurally complete candidate; updates the incumbent. Rows
   failing [Mapping.make]'s rules and cost-model rejections are counted,
   never swallowed: a mapspace bug must look different from legitimate
   pruning in the stats. Scoring runs on the allocation-free
   [Model.score_rows] path: same energy/cycles/EDP bits as a full
   evaluation, no transfer/breakdown assembly. Only a candidate that
   takes a slot is built as a [Mapping.t]. *)
let score st c =
  let c =
    match st.inject with
    | No_injection -> c
    | Corrupt_first_build ->
      st.inject <- No_injection;
      corrupt_first_build c
  in
  if not (Rows.valid ~bounds:st.bounds c) then begin
    st.build_errors <- st.build_errors + 1;
    None
  end
  else begin
    st.evaluated <- st.evaluated + 1;
    match Model.score_rows st.ctx c with
    | Error _ ->
      st.eval_errors <- st.eval_errors + 1;
      None
    | Ok s ->
      let best = improves st.best s and alt = st.seeded > 0 && improves st.best_alt s in
      (if best || alt then
         match M.make st.w (Rows.to_levels st.w c) with
         | Ok m -> adopt st ~best ~alt m s
         | Error _ ->
           (* unreachable: [Rows.valid] accepts exactly what [make] does *)
           st.build_errors <- st.build_errors + 1);
      Some s
  end

(* [score] for a refinement move, which edits the incumbent's named
   levels: [Mapping.make] validates it. *)
let score_levels st levels =
  match M.make st.w (Array.to_list levels) with
  | Error _ -> st.build_errors <- st.build_errors + 1
  | Ok m -> (
    st.evaluated <- st.evaluated + 1;
    match Model.score_ctx st.ctx m with
    | Error _ -> st.eval_errors <- st.eval_errors + 1
    | Ok s ->
      adopt st ~best:(improves st.best s) ~alt:(st.seeded > 0 && improves st.best_alt s) m s)

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
      adopt st ~best:(improves st.best s) ~alt:false m s;
      st.best_is_seed <- true)

(* The grow dimensions of the Tiling / Unrolling Principles: the indexing
   dimensions of the operand temporally reused at the boundary. With no
   reused operand the principles give no restriction. An operand choice
   selects its grow list by index into [st.grows]. *)
let grow_index st = function Some op_name -> List.assoc op_name st.grow_of_op | None -> 0

(* A tile or unrolling over grow list [g] (one entry per dim of the list,
   in list order) as a row of factors of every workload dim. Entry [i] is
   matched at the position of the list's [i]-th dim first, so no dim is
   resolved by name. *)
let row_of st g assignment =
  let pos = st.grow_pos.(g) in
  let row = Array.make (Array.length st.dim_array) 1 in
  List.iteri
    (fun i (d, f) ->
      let j = M.dim_position st.dim_array pos.(i) d in
      if j >= 0 then row.(j) <- f)
    assignment;
  row

(* [grows], [grow_pos] and [grow_of_op] of the search state: operands
   indexed by the same dims share one grow list, and so one memo entry. *)
let grow_table (w : W.t) dims dim_array =
  let grows = ref [ dims ] in
  let index_of g =
    match List.find_index (List.equal String.equal g) (List.rev !grows) with
    | Some i -> i
    | None ->
      grows := g :: !grows;
      List.length !grows - 1
  in
  let grow_of_op =
    List.map (fun (op : W.operand) -> (op.W.name, index_of (W.indexing_dims op))) w.W.operands
  in
  let grows = Array.of_list (List.rev !grows) in
  let positions g = Array.of_list (List.map (M.dim_position dim_array 0) g) in
  (grows, Array.map positions grows, grow_of_op)

let operand_choices (o : Order_trie.candidate) =
  match o.Order_trie.reused_operands with [] -> [ None ] | ops -> List.map (fun x -> Some x) ops

(* {!M.complete_at_top} on rows: each dim's residual goes to the outermost
   level, times the top temporal factor already there. *)
let complete_at_top st (c : Rows.t) =
  let nl = Array.length c.Rows.temporal and n = Array.length st.bounds in
  let top = c.Rows.temporal.(nl - 1) in
  let row = Array.make n 1 in
  for j = 0 to n - 1 do
    let placed = ref 1 in
    for l = 0 to nl - 1 do
      placed := !placed * c.Rows.temporal.(l).(j) * c.Rows.spatial.(l).(j)
    done;
    row.(j) <- top.(j) * (st.bounds.(j) / !placed)
  done;
  { c with Rows.temporal = set c.Rows.temporal (nl - 1) row }

(* ------------------------------------------------------------------ *)
(* Bottom-up                                                           *)
(* ------------------------------------------------------------------ *)

(* A prefix with [edp_lb > incumbent * prune_margin] is cut once the seed
   has been displaced (see the margin computation below). 0.8 is the
   empirical knee on the ResNet-18/Inception-v3 transfer benchmark: it cuts
   warm evaluations by a further ~6 points while every layer's final EDP
   stays equal or better than the cold search's; tighter margins (0.75 and
   below) start pruning subtrees holding small genuine improvements. *)
let prune_margin = 0.8

(* Alpha-beta (Section V-C): prune a prefix whose optimistic EDP — the
   product of {!Model.prefix_lower_bounds_rows}' energy and cycles bounds —
   already exceeds the incumbent's EDP. Both bounds are admissible, so on
   its own the test never cuts a prefix holding a better completion
   ([sunstone check --admissibility] pins this). Bottom-up the test is
   sharp: with high reuse most of the energy is charged at the lowest
   levels, so the committed energy sits close to the final energy. *)
let alpha_beta_prunes st ~fixed_levels c =
  st.cfg.alpha_beta
  &&
  match st.best with
  | None -> false
  | Some (_, best) ->
    let lb = Model.prefix_lower_bounds_rows st.ctx ~fixed_levels c in
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
    let prunes = lb.Model.lb_energy_pj *. lb.Model.lb_cycles > best.Model.s_edp *. margin in
    if prunes then st.pruned <- st.pruned + 1;
    prunes

(* Candidates for one bottom-up pass at boundary [k]: level-k ordering,
   level-(k-1) tile, level-k spatial unrolling. [orders] pairs each order
   candidate with its row. *)
let bottom_up_pass st ~orders ~k (prefix : Rows.t) =
  (* everything already fixed strictly below the new tile, including the
     spatial factors of levels <= k-1, indexed by probe dim *)
  let placed = Array.make (Array.length st.dim_array) 1 in
  for l = 0 to k - 1 do
    let t = prefix.Rows.temporal.(l) and s = prefix.Rows.spatial.(l) in
    for j = 0 to Array.length placed - 1 do
      placed.(j) <- placed.(j) * t.(j) * s.(j)
    done
  done;
  let remaining d = W.bound st.w d / placed.(Probe.dim_index st.probe d) in
  let fanout = (A.level st.arch k).A.fanout in
  let results = ref [] in
  let emit_candidate ~tile ~order ~spatial =
    st.examined <- st.examined + 1;
    results :=
      {
        Rows.temporal = set prefix.Rows.temporal (k - 1) tile;
        spatial = set prefix.Rows.spatial k spatial;
        order = set prefix.Rows.order k order;
      }
      :: !results
  in
  (* At capacious levels the maximal-tile frontier can be huge; keep the
     largest-volume tiles (more volume = fewer refills from above, the same
     monotonicity the Tiling Principle exploits). The sort is stable, so
     equal volumes keep their frontier order. *)
  let cap_frontier frontier =
    let max_keep = 40 in
    if List.length frontier <= max_keep then frontier
    else
      List.map (fun a -> (List.fold_left (fun acc (_, f) -> acc * f) 1 a, a)) frontier
      |> List.stable_sort (fun (va, _) (vb, _) -> Int.compare vb va)
      |> Listx.take max_keep |> List.map snd
  in
  (* Distinct orders often share the reused operand, hence the same grow
     set; tile and unroll candidate sets depend only on that set (plus any
     already-chosen factors) for a given prefix, so memoize them per pass,
     each assignment next to its row. The chosen factors are always an
     entry of the same grow set's other memoized list, whose entries are
     distinct, so the grow index and the entry's position ([-1] for none)
     identify the key. *)
  let tile_memo : (int, (Tile_tree.assignment * int array) list) Hashtbl.t = Hashtbl.create 8 in
  let unroll_memo : (int, (Tile_tree.assignment * int array) list) Hashtbl.t = Hashtbl.create 8 in
  let memo_key g chosen = g + (Array.length st.grows * (chosen + 1)) in
  let with_rows g = List.map (fun a -> (a, row_of st g a)) in
  let tiles_for g ~chosen ~remaining =
    let key = memo_key g chosen in
    match Hashtbl.find_opt tile_memo key with
    | Some tiles -> tiles
    | None ->
      let grow = st.grows.(g) in
      let tiles = cap_frontier (search_tiles st ~level:(k - 1) ~base:placed ~grow ~remaining) in
      st.tile_candidates <- st.tile_candidates + List.length tiles;
      let tiles = with_rows g tiles in
      Hashtbl.add tile_memo key tiles;
      tiles
  in
  let unrolls_for g ~chosen ~remaining =
    let key = memo_key g chosen in
    match Hashtbl.find_opt unroll_memo key with
    | Some unrolls -> unrolls
    | None ->
      let out =
        Unroll.candidates ~fanout ~dims:st.grows.(g) ~remaining
          ~min_utilization:st.cfg.min_spatial_utilization ()
      in
      st.examined <- st.examined + out.Unroll.explored;
      st.unroll_candidates <- st.unroll_candidates + List.length out.Unroll.candidates;
      let unrolls = with_rows g out.Unroll.candidates in
      Hashtbl.add unroll_memo key unrolls;
      unrolls
  in
  let expand_order_op order op_choice =
    let g = grow_index st op_choice in
    match st.cfg.intra with
    | Ordering_first | Tiling_first ->
      let tiles = tiles_for g ~chosen:(-1) ~remaining in
      List.iteri
        (fun i (tile_a, tile) ->
          let after_tile d = remaining d / Tile_tree.factor_of tile_a d in
          let unrolls = unrolls_for g ~chosen:i ~remaining:after_tile in
          List.iter (fun (_, spatial) -> emit_candidate ~tile ~order ~spatial) unrolls)
        tiles
    | Unrolling_first ->
      let unrolls = unrolls_for g ~chosen:(-1) ~remaining in
      List.iteri
        (fun i (spatial_a, spatial) ->
          let rem d = remaining d / Tile_tree.factor_of spatial_a d in
          let tiles = tiles_for g ~chosen:i ~remaining:rem in
          List.iter (fun (_, tile) -> emit_candidate ~tile ~order ~spatial) tiles)
        unrolls
  in
  List.iter (fun (o, order) -> List.iter (expand_order_op order) (operand_choices o)) orders;
  !results

(* Spatial unrolling below the innermost memory (e.g. Simba's vector
   lanes): one candidate set per protected operand. *)
let lane_pass st (prefix : Rows.t) =
  let fanout = (A.level st.arch 0).A.fanout in
  if fanout <= 1 then [ prefix ]
  else begin
    let results = ref [] in
    List.iter
      (fun (op : W.operand) ->
        let g = grow_index st (Some op.W.name) in
        let out =
          Unroll.candidates ~fanout ~dims:st.grows.(g)
            ~remaining:(fun d -> W.bound st.w d)
            ~min_utilization:st.cfg.min_spatial_utilization ()
        in
        st.examined <- st.examined + out.Unroll.explored;
        st.unroll_candidates <- st.unroll_candidates + List.length out.Unroll.candidates;
        List.iter
          (fun spatial ->
            st.examined <- st.examined + 1;
            results :=
              { prefix with Rows.spatial = set prefix.Rows.spatial 0 (row_of st g spatial) }
              :: !results)
          out.Unroll.candidates)
      st.w.W.operands;
    !results
  end

(* Candidate identity: two candidates are the same when, level by level,
   their temporal rows, orders and spatial rows hold the same ints. Rows
   are shared, so most equal rows are the same array. *)
let mix h x = (h * 31) + x

let rec hash_from row i h = if i >= Array.length row then h else hash_from row (i + 1) (mix h row.(i))

let hash_row h row = hash_from row 0 h

let rec same_from a b i = i >= Array.length a || (a.(i) = b.(i) && same_from a b (i + 1))

let same_row a b = a == b || (Array.length a = Array.length b && same_from a b 0)

let same_rows a b = a == b || (Array.length a = Array.length b && Array.for_all2 same_row a b)

(* A first-occurrence test on an int [hash]: entries whose hashes collide
   are compared with [same] before one counts as already seen. *)
let first_seen ~hash ~same =
  let seen = Hashtbl.create 64 in
  fun x ->
    let h = hash x in
    if List.exists (same x) (Hashtbl.find_all seen h) then false
    else begin
      Hashtbl.add seen h x;
      true
    end

let dedup_candidates cands =
  let hash (c : Rows.t) =
    let h = ref 0 in
    for l = 0 to Array.length c.Rows.temporal - 1 do
      let h' = hash_row (hash_row !h c.Rows.temporal.(l)) c.Rows.order.(l) in
      h := mix (hash_row h' c.Rows.spatial.(l)) (-1)
    done;
    !h
  in
  let same (a : Rows.t) (b : Rows.t) =
    same_rows a.Rows.temporal b.Rows.temporal
    && same_rows a.Rows.order b.Rows.order
    && same_rows a.Rows.spatial b.Rows.spatial
  in
  List.filter (first_seen ~hash ~same) cands

(* Scored candidates in ascending order of their key; equal keys keep
   their list order. *)
let rank scored =
  let ranked = Array.of_list scored in
  Array.stable_sort (fun (_, a) (_, b) -> Float.compare a b) ranked;
  Array.map fst ranked

(* Score prefixes by their naive completion and keep the beam. The naive
   completion is a poor predictor of how a spatial-unrolling style plays
   out at the upper levels, so the beam is diversity-preserving: the best
   prefix of every distinct spatial signature is seated first, and the
   remaining slots go to the global ranking. The incumbent tightens
   mid-pass and feeds the alpha-beta test of the next prefix, so prefixes
   are bounded and scored one by one. *)
let select_beam st ~fixed_levels prefixes =
  let scored =
    List.filter_map
      (fun c ->
        if alpha_beta_prunes st ~fixed_levels c then None
        else
          match score st (complete_at_top st c) with
          | Some s -> Some (c, s.Model.s_edp)
          | None -> None)
      prefixes
  in
  (* a prefix's spatial signature: every level's spatial factors *)
  let new_signature =
    first_seen
      ~hash:(fun (c : Rows.t) ->
        Array.fold_left (fun h row -> mix (hash_row h row) (-1)) 0 c.Rows.spatial)
      ~same:(fun (a : Rows.t) (b : Rows.t) -> same_rows a.Rows.spatial b.Rows.spatial)
  in
  let ranked = rank scored in
  let n = Array.length ranked and beam = st.cfg.beam_width in
  let seated = Array.make n false and kept = ref [] and nkept = ref 0 in
  let seat i =
    seated.(i) <- true;
    kept := ranked.(i) :: !kept;
    incr nkept
  in
  (* the first prefix of each signature in rank order, until the beam is
     full; only if every signature is seated with room left does the rest
     of the ranking fill it *)
  let i = ref 0 in
  while !nkept < beam && !i < n do
    if new_signature ranked.(!i) then seat !i;
    incr i
  done;
  let i = ref 0 in
  while !nkept < beam && !i < n do
    if not seated.(!i) then seat !i;
    incr i
  done;
  List.rev !kept

(* Order candidates come with the trie's visit/prune tallies, so the
   kept/dropped split the paper's Table VI accounts for is observable.
   Each comes paired with its order row. *)
let order_candidates st =
  let orders, ostats = Order_trie.candidates_with_stats st.w in
  st.orders_kept <- st.orders_kept + List.length orders;
  st.orders_dropped <- st.orders_dropped + ostats.Order_trie.nodes_pruned;
  List.map
    (fun (o : Order_trie.candidate) ->
      (o, Array.of_list (List.mapi (M.dim_position st.dim_array) o.Order_trie.order)))
    orders

let optimize_bottom_up st =
  let orders = order_candidates st in
  let top = A.num_levels st.arch - 1 in
  let start = [ initial_rows st ] in
  let after_lanes =
    let cands = List.concat_map (lane_pass st) start in
    select_beam st ~fixed_levels:0 (dedup_candidates cands)
  in
  let rec run k prefixes =
    if k > top then prefixes
    else begin
      let cands = List.concat_map (bottom_up_pass st ~orders ~k) prefixes in
      match select_beam st ~fixed_levels:k (dedup_candidates cands) with
      | [] -> run (k + 1) prefixes
      | kept -> run (k + 1) kept
    end
  in
  ignore (run 1 (match after_lanes with [] -> start | _ -> after_lanes))

(* ------------------------------------------------------------------ *)
(* Top-down (Table VI ablation)                                        *)
(* ------------------------------------------------------------------ *)

(* In the top-down walk the running state per prefix is the aggregate
   extent [A_{k-1}] still to be laid out below the current boundary; it is
   carried as the temporal factor of level k-1 in the prefix and split
   further by the next pass. *)
let top_down_pass st ~orders ~k (prefix : Rows.t) =
  (* invariant: the aggregate extent still to be laid out at level k and
     below sits as level k's temporal row; this pass splits it into
     t_k x s_k x A_{k-1} *)
  let below = prefix.Rows.temporal.(k) in
  let below_of d = below.(Probe.dim_index st.probe d) in
  let all_ones = Array.make (Array.length st.dim_array) 1 in
  let fanout = (A.level st.arch k).A.fanout in
  let results = ref [] in
  let emit ~order ~spatial ~tile =
    st.examined <- st.examined + 1;
    let t_k = Array.mapi (fun j b -> b / (spatial.(j) * tile.(j))) below in
    let temporal = set prefix.Rows.temporal k t_k in
    temporal.(k - 1) <- tile;
    results :=
      {
        Rows.temporal;
        spatial = set prefix.Rows.spatial k spatial;
        order = set prefix.Rows.order k order;
      }
      :: !results
  in
  let expand order op_choice =
    let g = grow_index st op_choice in
    let out_unroll =
      Unroll.candidates ~fanout ~dims:st.grows.(g) ~remaining:below_of
        ~min_utilization:st.cfg.min_spatial_utilization ()
    in
    st.examined <- st.examined + out_unroll.Unroll.explored;
    st.unroll_candidates <- st.unroll_candidates + List.length out_unroll.Unroll.candidates;
    List.iter
      (fun spatial_a ->
        let spatial = row_of st g spatial_a in
        let rem d = below_of d / Tile_tree.factor_of spatial_a d in
        (* the level-k spatial factor distributes across level-(k-1)
           instances and does not occupy any single buffer *)
        let tiles = search_tiles st ~level:(k - 1) ~base:all_ones ~grow:st.dims ~remaining:rem in
        st.tile_candidates <- st.tile_candidates + List.length tiles;
        (* tiles grow every dim: grow list 0 *)
        List.iter (fun tile -> emit ~order ~spatial ~tile:(row_of st 0 tile)) tiles)
      out_unroll.Unroll.candidates
  in
  List.iter (fun (o, order) -> List.iter (expand order) (operand_choices o)) orders;
  !results

(* Split the innermost aggregate over the lane fanout at the end of a
   top-down walk. *)
let lane_pass_split st (c : Rows.t) =
  let fanout = (A.level st.arch 0).A.fanout in
  if fanout <= 1 then [ c ]
  else begin
    let results = ref [] in
    let below = c.Rows.temporal.(0) in
    let below_of d = below.(Probe.dim_index st.probe d) in
    List.iter
      (fun (op : W.operand) ->
        let g = grow_index st (Some op.W.name) in
        let out =
          Unroll.candidates ~fanout ~dims:st.grows.(g) ~remaining:below_of
            ~min_utilization:st.cfg.min_spatial_utilization ()
        in
        st.examined <- st.examined + out.Unroll.explored;
        st.unroll_candidates <- st.unroll_candidates + List.length out.Unroll.candidates;
        List.iter
          (fun spatial_a ->
            st.examined <- st.examined + 1;
            let spatial = row_of st g spatial_a in
            let temporal = Array.mapi (fun j b -> b / spatial.(j)) below in
            results :=
              {
                c with
                Rows.temporal = set c.Rows.temporal 0 temporal;
                spatial = set c.Rows.spatial 0 spatial;
              }
              :: !results)
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
    let c = initial_rows st in
    [ { c with Rows.temporal = set c.Rows.temporal top st.bounds } ]
  in
  let select prefixes =
    (* rank by energy: the spatial unrolling of the inner passes is still
       unassigned, so every prefix shares the same (serial) cycle count and
       EDP cannot discriminate *)
    let scored =
      List.filter_map
        (fun c -> match score st c with Some s -> Some (c, s.Model.s_energy_pj) | None -> None)
        prefixes
    in
    let ranked = rank scored in
    Array.to_list (Array.sub ranked 0 (min st.cfg.beam_width (Array.length ranked)))
  in
  let rec run k prefixes =
    if k < 1 then prefixes
    else begin
      let cands = List.concat_map (top_down_pass st ~orders ~k) prefixes in
      match select (dedup_candidates cands) with
      | [] -> run (k - 1) prefixes
      | kept -> run (k - 1) kept
    end
  in
  (* split the innermost aggregate over the lane fanout *)
  List.iter
    (fun c -> List.iter (fun split -> ignore (score st split)) (lane_pass_split st c))
    (run top start)

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
    score_levels st levels
  in
  (* First-improvement hill-climb: every move is applied to the *current*
     incumbent, which [score_levels] may have just replaced — the old round-start
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
        let levels = Array.copy base in
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
        let levels = Array.copy base in
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
  let dims = W.dim_names w in
  let dim_array = Array.of_list dims in
  let grows, grow_pos, grow_of_op = grow_table w dims dim_array in
  let st =
    {
      w;
      arch;
      cfg = config;
      ctx = Model.context ~binding:config.binding w arch;
      probe = Probe.create w;
      dims;
      dim_array;
      bounds = Array.of_list (List.map (W.bound w) dims);
      grows;
      grow_pos;
      grow_of_op;
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
     seed-neighborhood mappings into [best_alt], which would
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
