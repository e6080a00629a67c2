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
  tile_fit_tests : int;
  shared_verdicts : int;
  wall_seconds : float;
}

type result = { mapping : M.t; cost : Model.cost; stats : stats }

(* Test hook: force the row check to fail exactly once so the error
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
  dim_array : W.dim array;  (** the workload's dims, for {!M.dim_position} *)
  bounds : int array;  (** each dim's bound, by dim position: the rows' products *)
  grow_pos : int array array;
      (** the distinct grow-dim lists an operand choice can select
          ({!grow_index}), the unrestricted one first, each as its dims'
          positions; a list's index keys the per-pass tile and unroll
          memos *)
  grow_of_op : (string * int) list;  (** operand name -> index into [grow_pos] *)
  table : Tile_tree.table;  (** the ladders of every tile and unroll search of this call *)
  fits : (float * Probe.axes array) array array;
      (** {!Probe.fit_table}: per level, (capacity, stored operands' axes)
          per partition — arrays, so the fit test loops without list closures *)
  mutable fit_level : int;  (** [tile_fits] scratch, set per tile search: the level tiled *)
  mutable fit_base : int array;  (** extent already placed below it, per probe dim *)
  mutable fit_grow : int array;  (** probe dim of each grow dim, in grow order *)
  mutable examined : int;
  mutable evaluated : int;
  mutable pruned : int;
  mutable build_errors : int;  (** candidates failing the row check, no longer silent *)
  mutable eval_errors : int;  (** cost-model rejections, no longer silent *)
  mutable orders_kept : int;
  mutable orders_dropped : int;
  mutable tile_candidates : int;  (** tile-tree frontier tiles emitted *)
  mutable unroll_candidates : int;  (** spatial unroll choices emitted *)
  mutable tile_fit_tests : int;  (** [tile_fits] calls *)
  mutable shared_verdicts : int;  (** candidates whose outcome came from their group *)
  mutable inject : injection;
  mutable best : (Rows.t * Model.score) option;
      (** incumbent: scored on the allocation-free path, built as a
          [Mapping.t] and fully evaluated once at the end of the search *)
  mutable seeded : int;  (** transferred seeds installed as the incumbent *)
  mutable seed_rejected : int;  (** transferred seeds that failed to build or score *)
  mutable seed_edp : float;  (** EDP of the installed seed, for the alpha ratio *)
  mutable best_is_seed : bool;
      (** the incumbent is still the transferred seed — no enumerated
          candidate has displaced it *)
  mutable best_alt : (Rows.t * Model.score) option;
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
   change, and no row is mutated once built. On a row, an entry is a
   factor or an order position. *)
let set rows l row =
  let a = Array.copy rows in
  a.(l) <- row;
  a

(* Does the tile with the given grow-dim factors fit every partition of
   [st.fit_level]? Each grow dim's extent is its base times its factor;
   the other dims were loaded into the probe's extent vector by
   [set_tile_scope]. [Probe.fits] sums footprints bit-identically to
   [Listx.sum_by W.footprint]. The loops are index-driven over the
   prebuilt arrays, and the local refs below are compiled to registers
   (Simplif eliminates non-escaping refs). *)
(* sunstone-hot *)
let tile_fits st factors =
  st.tile_fit_tests <- st.tile_fit_tests + 1;
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

(* Point [tile_fits] at tiles of [level] over the probe dims [grow]:
   every dim starts from its [base] extent (indexed by probe dim), and the
   tile multiplies the grow dims' extents by its factors. *)
let set_tile_scope st ~level ~base ~grow =
  Array.blit base 0 (Probe.extents st.probe) 0 (Array.length base);
  st.fit_level <- level;
  st.fit_base <- base;
  st.fit_grow <- grow

let tile_max_steps = 20

(* The frontier of fitting tiles at [level] over grow list [g], with
   [remaining] extents by grow position. [tile_fits] is monotone: a
   footprint only grows with a factor. [scope] must hold only searches of
   the same [level], [base] and [g]. *)
let search_tiles st ~scope ~level ~base g ~remaining =
  set_tile_scope st ~level ~base ~grow:st.grow_pos.(g);
  let out =
    Tile_tree.search ~max_steps:tile_max_steps ~scope ~table:st.table ~remaining
      ~fits:(tile_fits st) ()
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

(* Install rows [c] in the slots [s] improves: the incumbent, and when
   seeded the best {e enumerated} mapping, which is tracked separately
   because a transferred seed can be strong enough that no enumerated
   candidate ever displaces it, and the final refinement then never sees
   the enumeration's own best starting point. [c] may be a pass buffer's
   scratch rows and [s] the context-owned record [Model.score_rows]
   overwrites on the next call, so the slots keep copies. *)
let adopt st ~best ~alt (c : Rows.t) (s : Model.score) =
  let c =
    {
      Rows.temporal = Array.map Array.copy c.Rows.temporal;
      spatial = Array.map Array.copy c.Rows.spatial;
      order = Array.map Array.copy c.Rows.order;
    }
  in
  if best then begin
    st.best <- Some (c, Model.copy_score s);
    st.best_is_seed <- false
  end;
  if alt then st.best_alt <- Some (c, Model.copy_score s)

(* Score a structurally complete candidate; updates the incumbent. Rows
   failing [Mapping.make]'s rules and cost-model rejections are counted,
   never swallowed: a mapspace bug must look different from legitimate
   pruning in the stats. Scoring runs on the allocation-free
   [Model.score_rows] path: same energy/cycles/EDP bits as a full
   evaluation, no transfer/breakdown assembly. *)
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
      if best || alt then adopt st ~best ~alt c s;
      Some s
  end

(* Install a transferred mapping (a rescaled neighbor from the cache) as
   the initial incumbent, so the very first alpha-beta tests already have a
   finite alpha. The seed comes from a *different* request's search, so a
   rejection here is the expected silent fallback, not a mapspace bug: it
   stays out of [build_errors]/[eval_errors] and the search proceeds from
   scratch exactly as if no seed had been offered. [Mapping.make]
   validates the levels, which then join the search as rows. *)
let install_seed st levels_list =
  match M.make st.w levels_list with
  | Error _ -> st.seed_rejected <- st.seed_rejected + 1
  | Ok m -> (
    let c = Rows.of_levels st.w m.M.levels in
    match Model.score_rows st.ctx c with
    | Error _ -> st.seed_rejected <- st.seed_rejected + 1
    | Ok s ->
      st.seeded <- st.seeded + 1;
      st.seed_edp <- s.Model.s_edp;
      adopt st ~best:(improves st.best s) ~alt:false c s;
      st.best_is_seed <- true)

(* The grow dimensions of the Tiling / Unrolling Principles: the indexing
   dimensions of the operand temporally reused at the boundary. With no
   reused operand the principles give no restriction. An operand choice
   selects its grow list by index into [st.grow_pos]. *)
let grow_index st = function Some op_name -> List.assoc op_name st.grow_of_op | None -> 0

(* A tile or unrolling over grow list [g] (a factor vector, one entry per
   grow position) as a row of factors of every workload dim. *)
let row_of st g factors =
  let pos = st.grow_pos.(g) in
  let row = Array.make (Array.length st.dim_array) 1 in
  for i = 0 to Array.length pos - 1 do
    row.(pos.(i)) <- factors.(i)
  done;
  row

(* [row]'s entries at the grow positions of list [g]. *)
let by_grow st g row = Array.map (fun j -> row.(j)) st.grow_pos.(g)

(* [remaining] divided entrywise by the factor vector [factors]. *)
let divide remaining factors = Array.mapi (fun i r -> r / factors.(i)) remaining

(* The maximal unrollings of grow list [g] over the fanout below [level]
   ({!Unroll.candidates}), with [remaining] extents by grow position, each
   as its factor vector and its row. *)
let unrolls st ~level g ~remaining =
  let out =
    Unroll.candidates ~table:st.table ~fanout:(A.level st.arch level).A.fanout ~remaining
      ~min_utilization:st.cfg.min_spatial_utilization ()
  in
  st.examined <- st.examined + out.Unroll.explored;
  st.unroll_candidates <- st.unroll_candidates + List.length out.Unroll.candidates;
  List.map (fun a -> (a, row_of st g a)) out.Unroll.candidates

(* [grow_pos] and [grow_of_op] of the search state: operands indexed by
   the same dims share one grow list, and so one memo entry. *)
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
  let positions g = Array.of_list (List.map (M.dim_position dim_array 0) g) in
  (Array.of_list (List.rev_map positions !grows), grow_of_op)

let operand_choices (o : Order_trie.candidate) =
  match o.Order_trie.reused_operands with [] -> [ None ] | ops -> List.map (fun x -> Some x) ops

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

(* Candidate identity: two candidates are the same when, level by level,
   their temporal rows, orders and spatial rows hold the same ints. Rows
   are shared, so most equal rows are the same array. *)
let mix h x = (h * 31) + x

let rec hash_from row i h = if i >= Array.length row then h else hash_from row (i + 1) (mix h row.(i))

let hash_row h row = hash_from row 0 h

let rec same_from (a : int array) b i =
  i >= Array.length a || (a.(i) = b.(i) && same_from a b (i + 1))

let same_row a b = a == b || (Array.length a = Array.length b && same_from a b 0)

let same_rows a b = a == b || (Array.length a = Array.length b && Array.for_all2 same_row a b)

(* The tiling scopes of one pass ({!Tile_tree.scope}): tile searches at the
   pass's level share a fit test when the extents fixed below the tile are
   the same row and they grow the same list. [pass_scopes st row g ~extents]
   is the scope of that row and grow list [g], created on first use over
   [extents], by grow position. *)
let pass_scopes st =
  let seen = ref [] in
  fun row g ~extents ->
    let slots =
      match List.find_opt (fun (r, _) -> same_row r row) !seen with
      | Some (_, slots) -> slots
      | None ->
        let slots = Array.make (Array.length st.grow_pos) None in
        seen := (row, slots) :: !seen;
        slots
    in
    match slots.(g) with
    | Some scope -> scope
    | None ->
      let scope = Tile_tree.scope extents in
      slots.(g) <- Some scope;
      scope

module Int_table = Hashtbl.Make (Int)

(* A first-occurrence test on an int [hash]: entries whose hashes collide
   are compared with [same] before one counts as already seen. *)
let first_seen ~hash ~same =
  let seen = Int_table.create 64 in
  fun x ->
    let h = hash x in
    if List.exists (same x) (Int_table.find_all seen h) then false
    else begin
      Int_table.add seen h x;
      true
    end

(* Bottom-up pass [k] chooses, per prefix, the level-k loop order, the
   level-(k-1) tile and the level-k spatial unrolling; the lane pass
   ([k = 0]) only the level-0 unrolling. The pass runs on candidate
   indices. A {e group} is one prefix with one (tile row, spatial row)
   choice, and a candidate is an (order, group) pair whose rows are the
   prefix's with those three swapped in. A candidate is only ever loaded
   into one scratch [Rows.t]; a real one is built for beam survivors and
   new incumbents.

   Why the members of a group share one verdict: no pass before k places
   a temporal loop at level k, and naive completion fills only the top
   level, so below the top pass every member's level-k temporal row is
   all ones. The cost model reads a loop order only through the loops it
   orders, and skips factors of 1, so the level-k order changes neither
   the group's alpha-beta bound, nor its row check (each order row is a
   permutation, checked by {!order_candidates}), nor its completed
   score. The first member to reach each step computes it into the
   group's verdict; later members replay it against the current
   incumbent, with the same counts a fresh computation would give. *)

type outcome = Unknown | Build_error | Eval_error | Scored

type pass_buf = {
  orders : int array array;  (** order candidates' rows *)
  order_grows : int array array;  (** per order: each operand choice's grow list *)
  repeat_grow : bool;  (** two operand choices of some order select one grow list *)
  mutable prefixes : Rows.t array;  (** the pass's prefixes, in beam order *)
  mutable shares : bool array;
      (** per prefix: its level-k temporal row is all ones below the top
          pass, so its groups may share verdicts *)
  mutable ngroups : int;
  mutable g_prefix : int array;
  mutable g_tile : int array array;  (** the level-(k-1) temporal row; unused at [k = 0] *)
  mutable g_spatial : int array array;  (** the level-k spatial row *)
  mutable g_canon : int array;  (** the prefix's first group with the same two rows *)
  mutable g_ok : bool array;
      (** the group's tile and spatial rows pass the row check, made once
          where the group is added *)
  mutable stamp : int array;  (** per group: the last dedup run that met it *)
  mutable run : int;
  (* verdicts: slot 0 is a candidate's own, slot [g + 1] group [g]'s *)
  mutable v_bound : float array;  (** the bound's EDP, [nan] until computed *)
  mutable v_outcome : outcome array;
  mutable v_energy : float array;
  mutable v_cycles : float array;
  mutable v_edp : float array;
  mutable ncand : int;
  mutable c_order : int array;  (** [-1] at [k = 0] *)
  mutable c_group : int array;
  mutable c_key : float array;  (** a scored candidate's EDP *)
  mutable nscored : int;
  mutable scored : int array;  (** scored candidates, in candidate order *)
  ranking : Ranking.t;  (** the scored candidates, ranked lazily by EDP *)
  mutable popped : int array;  (** candidates in rank order, as far as ranked *)
  mutable seated : bool array;  (** per popped candidate: seated in the beam *)
  load : Rows.t;  (** the candidate examined: its prefix's rows, its own swapped in *)
  completed : Rows.t;  (** [load] completed at the top: same spatial and order rows *)
  top_row : int array;  (** [completed]'s top temporal row *)
  replayed : Model.score;
  twins : int Int_table.t;
  mutable loaded : int;  (** the prefix whose rows [load] holds, [-1] for none *)
  mutable bounded : bool;
      (** the model's layout holds [load]: the candidate's bound was
          computed in this [examine] call *)
}

let has_repeat row = List.length (List.sort_uniq Int.compare (Array.to_list row)) < Array.length row

let pass_buf st orders =
  let nl = A.num_levels st.arch and n = Array.length st.bounds in
  let rows () = Array.make nl [||] in
  let load = { Rows.temporal = rows (); spatial = rows (); order = rows () } in
  let order_grows =
    Array.of_list
      (List.map
         (fun (o, _) -> Array.of_list (List.map (grow_index st) (operand_choices o)))
         orders)
  in
  let orders = Array.of_list (List.map snd orders) in
  {
    orders;
    order_grows;
    repeat_grow = Array.exists has_repeat order_grows;
    prefixes = [||];
    shares = [||];
    ngroups = 0;
    g_prefix = [||];
    g_tile = [||];
    g_spatial = [||];
    g_canon = [||];
    g_ok = [||];
    stamp = [||];
    run = 0;
    v_bound = [||];
    v_outcome = [||];
    v_energy = [||];
    v_cycles = [||];
    v_edp = [||];
    ncand = 0;
    c_order = [||];
    c_group = [||];
    c_key = [||];
    nscored = 0;
    scored = [||];
    ranking = Ranking.create ();
    popped = [||];
    seated = [||];
    load;
    completed = { load with Rows.temporal = rows () };
    top_row = Array.make n 1;
    replayed = { Model.s_energy_pj = 0.0; s_cycles = 0.0; s_edp = 0.0 };
    twins = Int_table.create 64;
    loaded = -1;
    bounded = false;
  }

(* [a] with room for [n] entries, the new ones [x]. Buffers are sized
   from counts known once a prefix's choices are enumerated, and kept
   across passes. *)
let fit a n x =
  if Array.length a >= n then a
  else begin
    let a' = Array.make n x in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let reserve_groups b extra =
  let n = b.ngroups + extra in
  b.g_prefix <- fit b.g_prefix n 0;
  b.g_tile <- fit b.g_tile n [||];
  b.g_spatial <- fit b.g_spatial n [||];
  b.g_canon <- fit b.g_canon n 0;
  b.g_ok <- fit b.g_ok n false;
  b.stamp <- fit b.stamp n 0;
  b.v_bound <- fit b.v_bound (n + 1) nan;
  b.v_outcome <- fit b.v_outcome (n + 1) Unknown;
  b.v_energy <- fit b.v_energy (n + 1) 0.0;
  b.v_cycles <- fit b.v_cycles (n + 1) 0.0;
  b.v_edp <- fit b.v_edp (n + 1) 0.0

let reserve_candidates b extra =
  let n = b.ncand + extra in
  b.c_order <- fit b.c_order n 0;
  b.c_group <- fit b.c_group n 0;
  b.c_key <- fit b.c_key n 0.0;
  b.scored <- fit b.scored n 0;
  b.popped <- fit b.popped n 0;
  b.seated <- fit b.seated n false

let clear_verdict b v =
  b.v_bound.(v) <- nan;
  b.v_outcome.(v) <- Unknown

(* A group's rows are checked here, once: a candidate's other rows are
   its prefix's, checked where they were made, and its order row, checked
   by {!order_candidates}. The lane pass places no tile. *)
let add_group b p ~tile ~spatial =
  let g = b.ngroups and n = Array.length b.top_row in
  b.g_prefix.(g) <- p;
  b.g_tile.(g) <- tile;
  b.g_spatial.(g) <- spatial;
  b.g_canon.(g) <- g;
  b.g_ok.(g) <- (Array.length tile = 0 || Rows.factors_ok n tile) && Rows.factors_ok n spatial;
  clear_verdict b (g + 1);
  b.ngroups <- g + 1

let add_candidate b o g =
  b.c_order.(b.ncand) <- o;
  b.c_group.(b.ncand) <- g;
  b.ncand <- b.ncand + 1

let start_pass b ~k ~top prefixes =
  let ones row = Array.for_all (fun f -> f = 1) row in
  b.prefixes <- Array.of_list prefixes;
  b.shares <-
    Array.map (fun (r : Rows.t) -> k > 0 && k < top && ones r.Rows.temporal.(k)) b.prefixes;
  b.ngroups <- 0;
  b.ncand <- 0;
  b.loaded <- -1

(* Point every group from [first] on at the first of them with the same
   tile and spatial rows, its twin; true when some group has one. *)
let find_twins b ~first =
  Int_table.reset b.twins;
  let found = ref false in
  for g = first to b.ngroups - 1 do
    let tile = b.g_tile.(g) and spatial = b.g_spatial.(g) in
    let h = hash_row (mix (hash_row 0 tile) (-1)) spatial in
    match
      List.find_opt
        (fun t -> same_row b.g_tile.(t) tile && same_row b.g_spatial.(t) spatial)
        (Int_table.find_all b.twins h)
    with
    | Some t ->
      b.g_canon.(g) <- t;
      found := true
    | None -> Int_table.add b.twins h g
  done;
  !found

(* Drop the candidates from [from] on that repeat an earlier (order, twin
   group) pair. Each order's candidates are one run, so a group met twice
   in a run is a duplicate. *)
let dedup_candidates_from b ~from =
  let kept = ref from and prev = ref min_int in
  for i = from to b.ncand - 1 do
    let o = b.c_order.(i) and g = b.c_group.(i) in
    if o <> !prev then begin
      b.run <- b.run + 1;
      prev := o
    end;
    let t = b.g_canon.(g) in
    if b.stamp.(t) <> b.run then begin
      b.stamp.(t) <- b.run;
      b.c_order.(!kept) <- o;
      b.c_group.(!kept) <- g;
      incr kept
    end
  done;
  b.ncand <- !kept

(* The (tile, spatial) choices at pass [k] of a prefix with placed row
   [placed], per grow list: its groups. Distinct orders often share the
   reused operand, hence the same grow list, and the choices depend only
   on that list, so they are enumerated once per list, when the first
   order selecting it is reached ([[||]] for a list no order selects). *)
let enumerate st b ~k placed =
  let scopes = pass_scopes st in
  (* At capacious levels the maximal-tile frontier can be huge; keep the
     largest-volume tiles (more volume = fewer refills from above, the same
     monotonicity the Tiling Principle exploits). The sort is stable, so
     equal volumes keep their frontier order. *)
  let cap_frontier frontier =
    let max_keep = 40 in
    if List.length frontier <= max_keep then frontier
    else
      List.map (fun a -> (Array.fold_left ( * ) 1 a, a)) frontier
      |> List.stable_sort (fun (va, _) (vb, _) -> Int.compare vb va)
      |> Listx.take max_keep |> List.map snd
  in
  let choices g =
    (* the extents left above [placed], by grow position; a scope spans
       them, and every search of these tiles divides them *)
    let remaining = Array.map (fun j -> st.bounds.(j) / placed.(j)) st.grow_pos.(g) in
    let tiles_for rem =
      let tiles =
        cap_frontier
          (search_tiles st
             ~scope:(scopes placed g ~extents:remaining)
             ~level:(k - 1) ~base:placed g ~remaining:rem)
      in
      st.tile_candidates <- st.tile_candidates + List.length tiles;
      List.map (fun a -> (a, row_of st g a)) tiles
    in
    match st.cfg.intra with
    | Ordering_first | Tiling_first ->
      List.concat_map
        (fun (tile_a, tile) ->
          List.map
            (fun (_, spatial) -> (tile, spatial))
            (unrolls st ~level:k g ~remaining:(divide remaining tile_a)))
        (tiles_for remaining)
    | Unrolling_first ->
      List.concat_map
        (fun (spatial_a, spatial) ->
          List.map (fun (_, tile) -> (tile, spatial)) (tiles_for (divide remaining spatial_a)))
        (unrolls st ~level:k g ~remaining)
  in
  let groups = Array.make (Array.length st.grow_pos) None in
  Array.iter
    (Array.iter (fun g ->
         if Option.is_none groups.(g) then groups.(g) <- Some (Array.of_list (choices g))))
    b.order_grows;
  Array.map (function Some gs -> gs | None -> [||]) groups

(* One enumeration of a pass: the placed row it ran for, its groups, and
   what it added to the counts. *)
type enumeration = {
  e_placed : int array;
  e_groups : (int array * int array) array array;
  e_examined : int;
  e_tile_candidates : int;
  e_unroll_candidates : int;
}

(* The groups of one prefix at pass [k]. They depend on the prefix only
   through its placed row, the extents fixed below the new tile, so the
   prefixes of a pass with one placed row share one {!enumerate}, found
   in [enumerated] by the row the way {!pass_scopes} finds a scope. A
   shared enumeration adds the first one's [examined],
   [tile_candidates] and [unroll_candidates], the counts enumerating
   again would add, and no tile fit tests. *)
let prefix_groups st b ~enumerated ~k (prefix : Rows.t) =
  (* everything already fixed strictly below the new tile, including the
     spatial factors of levels <= k-1, indexed by probe dim *)
  let placed = Array.make (Array.length st.dim_array) 1 in
  for l = 0 to k - 1 do
    let t = prefix.Rows.temporal.(l) and s = prefix.Rows.spatial.(l) in
    for j = 0 to Array.length placed - 1 do
      placed.(j) <- placed.(j) * t.(j) * s.(j)
    done
  done;
  match List.find_opt (fun e -> same_row e.e_placed placed) !enumerated with
  | Some e ->
    st.examined <- st.examined + e.e_examined;
    st.tile_candidates <- st.tile_candidates + e.e_tile_candidates;
    st.unroll_candidates <- st.unroll_candidates + e.e_unroll_candidates;
    e.e_groups
  | None ->
    let examined = st.examined
    and tile_candidates = st.tile_candidates
    and unroll_candidates = st.unroll_candidates in
    let groups = enumerate st b ~k placed in
    enumerated :=
      {
        e_placed = placed;
        e_groups = groups;
        e_examined = st.examined - examined;
        e_tile_candidates = st.tile_candidates - tile_candidates;
        e_unroll_candidates = st.unroll_candidates - unroll_candidates;
      }
      :: !enumerated;
    groups

let candidate_count b groups =
  Array.fold_left (Array.fold_left (fun acc g -> acc + Array.length groups.(g))) 0 b.order_grows

(* The candidates of prefix [p], with room reserved, in reverse emission
   order: orders last to first, each order's operand choices last to
   first, each choice's groups last to first. Candidates of different
   prefixes never collide (each keeps its prefix's other rows), so
   duplicates are dropped per prefix, and only where they can occur. *)
let add_prefix_candidates st b p groups =
  let first_group = b.ngroups and first = Array.map (fun _ -> 0) groups and lists = ref 0 in
  Array.iteri
    (fun g gs ->
      first.(g) <- b.ngroups;
      if gs <> [||] then incr lists;
      Array.iter (fun (tile, spatial) -> add_group b p ~tile ~spatial) gs)
    groups;
  (* the choices of one grow list are distinct, those of two can be equal
     (mttkrp) *)
  let twins = !lists > 1 && find_twins b ~first:first_group in
  let from = b.ncand in
  for o = Array.length b.order_grows - 1 downto 0 do
    let gs = b.order_grows.(o) in
    for c = Array.length gs - 1 downto 0 do
      let g = gs.(c) in
      for i = first.(g) + Array.length groups.(g) - 1 downto first.(g) do
        add_candidate b o i
      done
    done
  done;
  st.examined <- st.examined + (b.ncand - from);
  if b.repeat_grow || twins then dedup_candidates_from b ~from

(* Spatial unrolling below the innermost memory (e.g. Simba's vector
   lanes): one candidate set per protected operand, each candidate its
   own group of the single prefix. *)
let add_lane_candidates st b =
  let prefix = b.prefixes.(0) in
  if (A.level st.arch 0).A.fanout <= 1 then begin
    reserve_groups b 1;
    add_group b 0 ~tile:[||] ~spatial:prefix.Rows.spatial.(0);
    reserve_candidates b 1;
    add_candidate b (-1) 0
  end
  else begin
    let sets =
      List.map
        (fun (op : W.operand) ->
          let g = grow_index st (Some op.W.name) in
          List.map snd (unrolls st ~level:0 g ~remaining:(by_grow st g st.bounds)))
        st.w.W.operands
    in
    let n = List.fold_left (fun acc s -> acc + List.length s) 0 sets in
    st.examined <- st.examined + n;
    reserve_groups b n;
    List.iter (List.iter (fun spatial -> add_group b 0 ~tile:[||] ~spatial)) sets;
    reserve_candidates b n;
    for g = n - 1 downto 0 do
      add_candidate b (-1) g
    done;
    if find_twins b ~first:0 then dedup_candidates_from b ~from:0
  end

let load_prefix b p =
  let r = b.prefixes.(p) in
  let nl = Array.length r.Rows.temporal in
  Array.blit r.Rows.temporal 0 b.load.Rows.temporal 0 nl;
  Array.blit r.Rows.spatial 0 b.load.Rows.spatial 0 nl;
  Array.blit r.Rows.order 0 b.load.Rows.order 0 nl;
  Array.blit r.Rows.temporal 0 b.completed.Rows.temporal 0 (nl - 1);
  b.completed.Rows.temporal.(nl - 1) <- b.top_row;
  b.loaded <- p

(* Swap candidate [i]'s rows into [b.load]: the prefix's rows are copied
   once per prefix, the candidate's three by pointer. *)
(* sunstone-hot *)
let load_candidate b ~k i =
  let g = b.c_group.(i) in
  let p = b.g_prefix.(g) in
  if p <> b.loaded then load_prefix b p;
  if k > 0 then begin
    b.load.Rows.temporal.(k - 1) <- b.g_tile.(g);
    b.completed.Rows.temporal.(k - 1) <- b.g_tile.(g)
  end;
  b.load.Rows.spatial.(k) <- b.g_spatial.(g);
  let o = b.c_order.(i) in
  if o >= 0 then b.load.Rows.order.(k) <- b.orders.(o)

(* The loaded candidate's naive completion, into [b.top_row]: true when
   every dim's placed product divides its bound. *)
let complete st b = Rows.complete_into ~bounds:st.bounds b.load b.top_row

(* Alpha-beta (Section V-C): prune a prefix whose optimistic EDP — the
   product of {!Model.prefix_lower_bounds_rows}' energy and cycles bounds —
   already exceeds the incumbent's EDP. Both bounds are admissible, so on
   its own the test never cuts a prefix holding a better completion
   ([sunstone check --admissibility] pins this). Bottom-up the test is
   sharp: with high reuse most of the energy is charged at the lowest
   levels, so the committed energy sits close to the final energy. The
   bound's EDP is kept in verdict slot [v]; computing it loads [b.load]
   into the model's layout. *)
(* sunstone-hot *)
let bound_prunes st b ~fixed_levels v =
  st.cfg.alpha_beta
  &&
  match st.best with
  | None -> false
  | Some (_, best) ->
    if Float.is_nan b.v_bound.(v) then begin
      let lb = Model.prefix_lower_bounds_rows st.ctx ~fixed_levels b.load in
      b.v_bound.(v) <- lb.Model.lb_energy_pj *. lb.Model.lb_cycles;
      b.bounded <- true
    end;
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
    let prunes =
      if st.seeded > 0 && not st.best_is_seed then
        b.v_bound.(v) > best.Model.s_edp *. prune_margin
      else b.v_bound.(v) > best.Model.s_edp
    in
    if prunes then st.pruned <- st.pruned + 1;
    prunes

(* The loaded candidate's outcome, into verdict slot [v]: the row check,
   then the score of its naive completion. The check is the one
   [Rows.valid] makes of the completed rows: the group's rows were checked
   when it was added, and the completion checks its products. When this
   [examine] call computed the bound, the model's layout already holds
   [b.load], and the score replaces only its top temporal row. *)
(* sunstone-hot *)
let compute_outcome st b g v =
  if not (b.g_ok.(g) && complete st b) then b.v_outcome.(v) <- Build_error
  else
    match
      if b.bounded then Model.score_with_top st.ctx b.top_row
      else Model.score_rows st.ctx b.completed
    with
    | Error _ -> b.v_outcome.(v) <- Eval_error
    | Ok s ->
      b.v_energy.(v) <- s.Model.s_energy_pj;
      b.v_cycles.(v) <- s.Model.s_cycles;
      b.v_edp.(v) <- s.Model.s_edp;
      b.v_outcome.(v) <- Scored

(* A scored candidate takes the incumbent (or best-alternative) slot: its
   own completion, since its verdict may be another member's. Rare, so off
   the hot path. *)
(* sunstone-cold *)
let adopt_candidate st b ~best ~alt s =
  ignore (complete st b);
  adopt st ~best ~alt b.completed s

(* Candidate [i] takes the outcome in verdict slot [v]: the counts and the
   incumbent update of scoring it, with the score a fresh computation
   would give. *)
(* sunstone-hot *)
let replay st b i v =
  match b.v_outcome.(v) with
  | Unknown -> ()
  | Build_error -> st.build_errors <- st.build_errors + 1
  | Eval_error ->
    st.evaluated <- st.evaluated + 1;
    st.eval_errors <- st.eval_errors + 1
  | Scored ->
    st.evaluated <- st.evaluated + 1;
    let s = b.replayed in
    s.Model.s_energy_pj <- b.v_energy.(v);
    s.Model.s_cycles <- b.v_cycles.(v);
    s.Model.s_edp <- b.v_edp.(v);
    let best = improves st.best s and alt = st.seeded > 0 && improves st.best_alt s in
    if best || alt then adopt_candidate st b ~best ~alt s;
    b.c_key.(i) <- s.Model.s_edp;
    b.scored.(b.nscored) <- i;
    b.nscored <- b.nscored + 1

(* The injection hook takes the first candidate a search scores. It is
   scored as a real [Rows.t] through [score], and its verdict is its own:
   the corrupted rows are no other member's. *)
(* sunstone-cold *)
let score_injected st b i =
  ignore (complete st b);
  match score st b.completed with
  | None -> ()
  | Some s ->
    b.c_key.(i) <- s.Model.s_edp;
    b.scored.(b.nscored) <- i;
    b.nscored <- b.nscored + 1

(* Bound, then score, candidate [i] of pass [k]. *)
(* sunstone-hot *)
let examine st b ~k i =
  load_candidate b ~k i;
  b.bounded <- false;
  let g = b.c_group.(i) in
  let v =
    if b.shares.(b.g_prefix.(g)) then b.g_canon.(g) + 1
    else begin
      clear_verdict b 0;
      0
    end
  in
  if not (bound_prunes st b ~fixed_levels:k v) then
    match st.inject with
    | Corrupt_first_build -> score_injected st b i
    | No_injection ->
      (match b.v_outcome.(v) with
      | Unknown -> compute_outcome st b g v
      | Build_error | Eval_error | Scored -> st.shared_verdicts <- st.shared_verdicts + 1);
      replay st b i v

(* The candidate's rows, built for a beam survivor. *)
let candidate_rows b ~k i =
  let g = b.c_group.(i) and o = b.c_order.(i) in
  let prefix = b.prefixes.(b.g_prefix.(g)) in
  {
    Rows.temporal =
      (if k > 0 then set prefix.Rows.temporal (k - 1) b.g_tile.(g) else prefix.Rows.temporal);
    spatial = set prefix.Rows.spatial k b.g_spatial.(g);
    order = (if o >= 0 then set prefix.Rows.order k b.orders.(o) else prefix.Rows.order);
  }

(* Score the pass's candidates by their naive completion and keep the
   beam. The naive completion is a poor predictor of how a
   spatial-unrolling style plays out at the upper levels, so the beam is
   diversity-preserving: the best candidate of every distinct spatial
   signature is seated first, and the remaining slots go to the global
   ranking. The incumbent tightens mid-pass and feeds the alpha-beta test
   of the next candidate, so candidates are bounded and scored one by one,
   in candidate order. *)
let select_beam st b ~k =
  b.nscored <- 0;
  b.loaded <- -1;
  for i = 0 to b.ncand - 1 do
    examine st b ~k i
  done;
  (* a candidate's spatial signature: every level's spatial factors *)
  let nl = Array.length b.load.Rows.spatial in
  let spatial i l =
    let g = b.c_group.(i) in
    if l = k then b.g_spatial.(g) else b.prefixes.(b.g_prefix.(g)).Rows.spatial.(l)
  in
  let new_signature =
    first_seen
      ~hash:(fun i ->
        let h = ref 0 in
        for l = 0 to nl - 1 do
          h := mix (hash_row !h (spatial i l)) (-1)
        done;
        !h)
      ~same:(fun i j ->
        let rec from l = l >= nl || (same_row (spatial i l) (spatial j l) && from (l + 1)) in
        from 0)
  in
  (* The first candidate of each signature in rank order, until the beam
     is full; only if every signature is seated with room left does the
     rest of the ranking fill it. The ranking is by (EDP, candidate
     index), the order a stable sort of the scored candidates gives, and
     lazy: the candidates are popped only until the beam is seated, or
     all of them when the rest must fill it. *)
  Ranking.start b.ranking b.c_key b.scored b.nscored;
  let beam = st.cfg.beam_width in
  let kept = ref [] and nkept = ref 0 and npopped = ref 0 and more = ref true in
  while !nkept < beam && !more do
    let i = Ranking.pop b.ranking in
    if i < 0 then more := false
    else begin
      let seat = new_signature i in
      b.popped.(!npopped) <- i;
      b.seated.(!npopped) <- seat;
      incr npopped;
      if seat then begin
        kept := i :: !kept;
        incr nkept
      end
    end
  done;
  let j = ref 0 in
  while !nkept < beam && !j < !npopped do
    if not b.seated.(!j) then begin
      kept := b.popped.(!j) :: !kept;
      incr nkept
    end;
    incr j
  done;
  List.rev_map (candidate_rows b ~k) !kept

(* Order candidates come with the trie's visit/prune tallies, so the
   kept/dropped split the paper's Table VI accounts for is observable.
   Each comes paired with its order row, checked once here to be a
   permutation: candidates of one group share a row check only then.
   Distinct trie leaves give distinct orders, since no leaf's suffix
   extends another's. *)
let order_candidates st =
  let orders, ostats = Order_trie.candidates_with_stats st.w in
  st.orders_kept <- st.orders_kept + List.length orders;
  st.orders_dropped <- st.orders_dropped + ostats.Order_trie.nodes_pruned;
  List.map
    (fun (o : Order_trie.candidate) ->
      let row = Array.of_list (List.mapi (M.dim_position st.dim_array) o.Order_trie.order) in
      if not (Rows.order_ok (Array.length st.dim_array) row) then
        invalid_arg "Optimizer: an order candidate is not a permutation of the dims";
      (o, row))
    orders

let optimize_bottom_up st =
  let b = pass_buf st (order_candidates st) in
  let top = A.num_levels st.arch - 1 in
  let start = [ initial_rows st ] in
  start_pass b ~k:0 ~top start;
  add_lane_candidates st b;
  let after_lanes = select_beam st b ~k:0 in
  let rec run k prefixes =
    if k <= top then begin
      let enumerated = ref [] in
      start_pass b ~k ~top prefixes;
      let groups = Array.map (prefix_groups st b ~enumerated ~k) b.prefixes in
      let sum f = Array.fold_left (fun acc gs -> acc + f gs) 0 groups in
      reserve_groups b (sum (Array.fold_left (fun acc gs -> acc + Array.length gs) 0));
      reserve_candidates b (sum (candidate_count b));
      Array.iteri (add_prefix_candidates st b) groups;
      match select_beam st b ~k with [] -> run (k + 1) prefixes | kept -> run (k + 1) kept
    end
  in
  run 1 (match after_lanes with [] -> start | _ -> after_lanes)

(* ------------------------------------------------------------------ *)
(* Top-down (Table VI ablation)                                        *)
(* ------------------------------------------------------------------ *)

(* In the top-down walk the running state per prefix is the aggregate
   extent [A_{k-1}] still to be laid out below the current boundary; it is
   carried as the temporal factor of level k-1 in the prefix and split
   further by the next pass. *)
let top_down_pass st ~scopes ~orders ~k (prefix : Rows.t) =
  (* invariant: the aggregate extent still to be laid out at level k and
     below sits as level k's temporal row; this pass splits it into
     t_k x s_k x A_{k-1} *)
  let below = prefix.Rows.temporal.(k) in
  (* tiles grow every dim: grow list 0, whose positions are the rows' *)
  let scope = scopes below 0 ~extents:below in
  let all_ones = Array.make (Array.length st.dim_array) 1 in
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
    List.iter
      (fun (_, spatial) ->
        (* the level-k spatial factor distributes across level-(k-1)
           instances and does not occupy any single buffer *)
        let tiles =
          search_tiles st ~scope ~level:(k - 1) ~base:all_ones 0 ~remaining:(divide below spatial)
        in
        st.tile_candidates <- st.tile_candidates + List.length tiles;
        List.iter (fun tile -> emit ~order ~spatial ~tile:(row_of st 0 tile)) tiles)
      (unrolls st ~level:k g ~remaining:(by_grow st g below))
  in
  List.iter (fun (o, order) -> List.iter (expand order) (operand_choices o)) orders;
  !results

(* Split the innermost aggregate over the lane fanout at the end of a
   top-down walk. *)
let lane_pass_split st (c : Rows.t) =
  if (A.level st.arch 0).A.fanout <= 1 then [ c ]
  else begin
    let results = ref [] in
    let below = c.Rows.temporal.(0) in
    List.iter
      (fun (op : W.operand) ->
        let g = grow_index st (Some op.W.name) in
        List.iter
          (fun (_, spatial) ->
            st.examined <- st.examined + 1;
            let temporal = Array.mapi (fun j b -> b / spatial.(j)) below in
            results :=
              {
                c with
                Rows.temporal = set c.Rows.temporal 0 temporal;
                spatial = set c.Rows.spatial 0 spatial;
              }
              :: !results)
          (unrolls st ~level:0 g ~remaining:(by_grow st g below)))
      st.w.W.operands;
    !results
  end

(* A top-down pass splits the aggregate row its prefixes may differ in,
   so candidates of different prefixes can collide: duplicates are found
   across the whole pass, by every row. *)
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
      Array.of_list
        (List.filter_map
           (fun c -> match score st c with Some s -> Some (c, s.Model.s_energy_pj) | None -> None)
           prefixes)
    in
    let n = Array.length scored in
    let ranking = Ranking.create () in
    Ranking.start ranking (Array.map snd scored) (Array.init n Fun.id) n;
    let rec take m =
      if m = 0 then []
      else
        let i = Ranking.pop ranking in
        fst scored.(i) :: take (m - 1)
    in
    take (min st.cfg.beam_width n)
  in
  let rec run k prefixes =
    if k < 1 then prefixes
    else begin
      let scopes = pass_scopes st in
      let cands = List.concat_map (top_down_pass st ~scopes ~orders ~k) prefixes in
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
  let try_improve c =
    st.examined <- st.examined + 1;
    ignore (score st c)
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
  let move_factor j p l l' =
    match st.best with
    | None -> ()
    | Some (c, _) ->
      let t = c.Rows.temporal in
      let src = t.(l).(j) in
      if src > 1 && src mod p = 0 then begin
        let temporal = set t l (set t.(l) j (src / p)) in
        temporal.(l') <- set t.(l') j (t.(l').(j) * p);
        try_improve { c with Rows.temporal }
      end
  in
  let swap_order l i =
    match st.best with
    | None -> ()
    | Some (c, _) ->
      let ord = c.Rows.order.(l) in
      if i + 1 < Array.length ord then begin
        let ord' = set ord i ord.(i + 1) in
        ord'.(i + 1) <- ord.(i);
        try_improve { c with Rows.order = set c.Rows.order l ord' }
      end
  in
  let ndims = Array.length st.dim_array in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < 8 do
    incr rounds;
    let before = match st.best with Some (_, c) -> c.Model.s_edp | None -> infinity in
    (match st.best with
    | None -> ()
    | Some (c, _) ->
      let snapshot = c.Rows.temporal in
      (* factor moves between temporal levels *)
      for l = 0 to nlevels - 1 do
        for j = 0 to ndims - 1 do
          List.iter
            (fun p ->
              for l' = 0 to nlevels - 1 do
                if l' <> l then move_factor j p l l'
              done)
            (primes_of snapshot.(l).(j))
        done
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
    Tel.count "optimizer.tile_fit_tests" st.tile_fit_tests;
    Tel.count "optimizer.shared_verdicts" st.shared_verdicts;
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
  let grow_pos, grow_of_op = grow_table w dims dim_array in
  let probe = Probe.create w in
  {
    w;
    arch;
    cfg = config;
    ctx = Model.context ~binding:config.binding w arch;
    probe;
    dim_array;
    bounds = Array.of_list (List.map (W.bound w) dims);
    grow_pos;
    grow_of_op;
    table = Tile_tree.table ();
    fits = Probe.fit_table probe w arch ~binding:config.binding;
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
    tile_fit_tests = 0;
    shared_verdicts = 0;
    inject;
    best = None;
    seeded = 0;
    seed_rejected = 0;
    seed_edp = nan;
    best_is_seed = false;
    best_alt = None;
  }

let tile_fit_test w arch ~level ~grow =
  let st = create_state ~config:default_config ~inject:No_injection w arch in
  set_tile_scope st ~level
    ~base:(Array.make (Array.length st.dim_array) 1)
    ~grow:(Array.of_list (List.map (Probe.dim_index st.probe) grow));
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
  (* the injection hook belongs to the search passes *)
  st.inject <- No_injection;
  if config.refine then refine st;
  (* A seed no enumerated candidate displaced still gets refined above, but
     hill-climbing from the seed alone can strand the result at the seed's
     own local optimum while the unseeded search — refining from *its*
     winner — would have done better. Also refine from the enumeration's
     best and keep whichever endpoint wins. Together with the pruning
     margin this is heuristic: a seeded result is usually, not always, at
     least as good as the same search without the seed. *)
  (match (seed_survived, st.best, enumerated_best) with
  | true, Some (_, inc_s), Some (alt_c, alt_s)
    when config.refine && alt_s.Model.s_edp <= inc_s.Model.s_edp *. 1.5 ->
    (* only when the enumeration's endpoint is competitive (within 50%)
       with the refined seed: a far-worse endpoint rarely refines past the
       seed, and spending the transferred savings on its hill-climb would
       cancel the very reduction the seed bought *)
    let incumbent = st.best in
    st.best <- Some (alt_c, alt_s);
    refine st;
    (match (incumbent, st.best) with
    | Some (_, s0), Some (_, s1) when s0.Model.s_edp < s1.Model.s_edp -> st.best <- incumbent
    | _ -> ())
  | _ -> ());
  (* the search scored candidates on the allocation-free path; the
     incumbent is built as a [Mapping.t] once, and its single full
     evaluation rebuilds transfers and breakdown (bit-identical
     energy/cycles/EDP to its score) *)
  let final =
    match st.best with
    | None -> None
    | Some (c, _) -> (
      match M.make st.w (Rows.to_levels st.w c) with
      | Error _ -> None
      | Ok mapping -> (
        match Model.evaluate_ctx st.ctx mapping with
        | Ok cost -> Some (mapping, cost)
        | Error _ -> None))
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
            tile_fit_tests = st.tile_fit_tests;
            shared_verdicts = st.shared_verdicts;
            wall_seconds;
          };
      }
