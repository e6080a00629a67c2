(* Bottom-up enumeration: the pass buffer a level pass runs on, and the
   groups and candidates of its prefixes.

   Bottom-up pass [k] chooses, per prefix, the level-k loop order, the
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
   permutation, checked by {!Search_state.order_candidates}), nor its
   completed score. The first member to reach each step computes it into
   the group's verdict; later members replay it against the current
   incumbent, with the same counts a fresh computation would give
   ({!Bottom_up}). *)

module S = Search_state
module Rows = Sun_mapping.Mapping.Rows
module Model = Sun_cost.Model

type outcome = Unknown | Build_error | Eval_error | Scored

type buf = {
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
  twins : int S.Int_table.t;
  mutable loaded : int;  (** the prefix whose rows [load] holds, [-1] for none *)
  mutable bounded : bool;
      (** the model's layout holds [load]: the candidate's bound was
          computed in this [examine] call *)
}

let has_repeat row = List.length (List.sort_uniq Int.compare (Array.to_list row)) < Array.length row

let create (st : S.t) orders =
  let nl = Sun_arch.Arch.num_levels st.arch and n = Array.length st.bounds in
  let rows () = Array.make nl [||] in
  let load = { Rows.temporal = rows (); spatial = rows (); order = rows () } in
  let order_grows =
    Array.of_list
      (List.map
         (fun (o, _) -> Array.of_list (List.map (S.grow_index st) (S.operand_choices o)))
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
    twins = S.Int_table.create 64;
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
   by {!Search_state.order_candidates}. The lane pass places no tile. *)
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
  S.Int_table.reset b.twins;
  let found = ref false in
  let row g r = if r = 0 then b.g_tile.(g) else b.g_spatial.(g) in
  for g = first to b.ngroups - 1 do
    match S.find_twin b.twins ~n:2 ~row g with
    | Some t ->
      b.g_canon.(g) <- t;
      found := true
    | None -> ()
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
let enumerate (st : S.t) b ~k placed =
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
      |> Sun_util.Listx.take max_keep |> List.map snd
  in
  let choices g =
    (* the extents left above [placed], by grow position; a scope spans
       them, and every search of these tiles divides them *)
    let remaining = Array.map (fun j -> st.bounds.(j) / placed.(j)) st.grow_pos.(g) in
    let scope = Tile_tree.scope remaining in
    let tiles_for rem =
      let tiles =
        cap_frontier (S.search_tiles st ~scope ~level:(k - 1) ~base:placed g ~remaining:rem)
      in
      st.tile_candidates <- st.tile_candidates + List.length tiles;
      List.map (fun a -> (a, S.row_of st g a)) tiles
    in
    match st.cfg.intra with
    | Ordering_first | Tiling_first ->
      List.concat_map
        (fun (tile_a, tile) ->
          List.map
            (fun (_, spatial) -> (tile, spatial))
            (S.unrolls st ~level:k g ~remaining:(S.divide remaining tile_a)))
        (tiles_for remaining)
    | Unrolling_first ->
      List.concat_map
        (fun (spatial_a, spatial) ->
          List.map (fun (_, tile) -> (tile, spatial)) (tiles_for (S.divide remaining spatial_a)))
        (S.unrolls st ~level:k g ~remaining)
  in
  let groups = Array.make (Array.length st.grow_pos) None in
  Array.iter
    (Array.iter (fun g ->
         if Option.is_none groups.(g) then groups.(g) <- Some (Array.of_list (choices g))))
    b.order_grows;
  Array.map (function Some gs -> gs | None -> [||]) groups

(* One enumeration of a pass: its groups, and what it added to the
   counts. *)
type enumeration = {
  e_groups : (int array * int array) array array;
  e_examined : int;
  e_tile_candidates : int;
  e_unroll_candidates : int;
}

(* The groups of one prefix at pass [k]. They depend on the prefix only
   through its placed row, the extents fixed below the new tile, so the
   prefixes of a pass with one placed row share one {!enumerate}, kept in
   [enumerated] under that row. A shared enumeration adds the first one's
   [examined], [tile_candidates] and [unroll_candidates], the counts
   enumerating again would add, and no tile fit tests. *)
let prefix_groups (st : S.t) b ~enumerated ~k (prefix : Rows.t) =
  (* everything already fixed strictly below the new tile, including the
     spatial factors of levels <= k-1, indexed by probe dim *)
  let placed = Array.make (Array.length st.dim_array) 1 in
  for l = 0 to k - 1 do
    let t = prefix.Rows.temporal.(l) and s = prefix.Rows.spatial.(l) in
    for j = 0 to Array.length placed - 1 do
      placed.(j) <- placed.(j) * t.(j) * s.(j)
    done
  done;
  match S.find_row !enumerated placed with
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
    let e =
      {
        e_groups = groups;
        e_examined = st.examined - examined;
        e_tile_candidates = st.tile_candidates - tile_candidates;
        e_unroll_candidates = st.unroll_candidates - unroll_candidates;
      }
    in
    enumerated := (placed, e) :: !enumerated;
    groups

let candidate_count b groups =
  Array.fold_left (Array.fold_left (fun acc g -> acc + Array.length groups.(g))) 0 b.order_grows

(* The candidates of prefix [p], with room reserved, in reverse emission
   order: orders last to first, each order's operand choices last to
   first, each choice's groups last to first. Candidates of different
   prefixes never collide (each keeps its prefix's other rows), so
   duplicates are dropped per prefix, and only where they can occur. *)
let add_prefix_candidates (st : S.t) b p groups =
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

(* The lane pass's candidates: each lane unrolling its own group of the
   single prefix, or the prefix's own level-0 row when there are no
   lanes. *)
let add_lane_candidates (st : S.t) b =
  let prefix = b.prefixes.(0) in
  let spatials =
    match S.lane_unrolls st st.bounds with Some rows -> rows | None -> [ prefix.Rows.spatial.(0) ]
  in
  let n = List.length spatials in
  reserve_groups b n;
  List.iter (fun spatial -> add_group b 0 ~tile:[||] ~spatial) spatials;
  reserve_candidates b n;
  for g = n - 1 downto 0 do
    add_candidate b (-1) g
  done;
  if n > 1 && find_twins b ~first:0 then dedup_candidates_from b ~from:0
