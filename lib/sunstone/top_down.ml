(* The top-down search (the Table VI ablation): the same per-level
   machinery run from DRAM inward. In the top-down walk the running state
   per prefix is the aggregate extent [A_{k-1}] still to be laid out below
   the current boundary; it is carried as the temporal factor of level
   k-1 in the prefix and split further by the next pass. *)

module S = Search_state
module Rows = Sun_mapping.Mapping.Rows
module Model = Sun_cost.Model

let pass (st : S.t) ~scopes ~orders ~k (prefix : Rows.t) =
  (* invariant: the aggregate extent still to be laid out at level k and
     below sits as level k's temporal row; this pass splits it into
     t_k x s_k x A_{k-1} *)
  let below = prefix.Rows.temporal.(k) in
  (* tiles grow every dim: grow list 0, whose positions are the rows'. Its
     searches share a fit test ({!Tile_tree.scope}) when the extents fixed
     below the tile are the same row. *)
  let scope =
    match S.find_row !scopes below with
    | Some scope -> scope
    | None ->
      let scope = Tile_tree.scope below in
      scopes := (below, scope) :: !scopes;
      scope
  in
  let all_ones = Array.make (Array.length st.dim_array) 1 in
  let results = ref [] in
  let emit ~order ~spatial ~tile =
    st.examined <- st.examined + 1;
    let t_k = Array.mapi (fun j b -> b / (spatial.(j) * tile.(j))) below in
    let temporal = S.set prefix.Rows.temporal k t_k in
    temporal.(k - 1) <- tile;
    results :=
      {
        Rows.temporal;
        spatial = S.set prefix.Rows.spatial k spatial;
        order = S.set prefix.Rows.order k order;
      }
      :: !results
  in
  let expand order op_choice =
    let g = S.grow_index st op_choice in
    List.iter
      (fun (_, spatial) ->
        (* the level-k spatial factor distributes across level-(k-1)
           instances and does not occupy any single buffer *)
        let tiles =
          S.search_tiles st ~scope ~level:(k - 1) ~base:all_ones 0
            ~remaining:(S.divide below spatial)
        in
        st.tile_candidates <- st.tile_candidates + List.length tiles;
        List.iter (fun tile -> emit ~order ~spatial ~tile:(S.row_of st 0 tile)) tiles)
      (S.unrolls st ~level:k g ~remaining:(S.by_grow st g below))
  in
  List.iter (fun (o, order) -> List.iter (expand order) (S.operand_choices o)) orders;
  !results

(* Split the innermost aggregate over the lane fanout at the end of a
   top-down walk. *)
let lane_split st (c : Rows.t) =
  let below = c.Rows.temporal.(0) in
  match S.lane_unrolls st below with
  | None -> [ c ]
  | Some spatials ->
    List.rev_map
      (fun spatial ->
        let temporal = Array.mapi (fun j b -> b / spatial.(j)) below in
        {
          c with
          Rows.temporal = S.set c.Rows.temporal 0 temporal;
          spatial = S.set c.Rows.spatial 0 spatial;
        })
      spatials

(* A top-down pass splits the aggregate row its prefixes may differ in,
   so candidates of different prefixes can collide: duplicates are found
   across the whole pass, by every row. *)
let dedup_candidates cands =
  let seen = S.Int_table.create 64 in
  let row (c : Rows.t) r =
    let l = r / 3 in
    match r mod 3 with 0 -> c.Rows.temporal.(l) | 1 -> c.Rows.order.(l) | _ -> c.Rows.spatial.(l)
  in
  List.filter
    (fun (c : Rows.t) ->
      Option.is_none (S.find_twin seen ~n:(3 * Array.length c.Rows.temporal) ~row c))
    cands

(* Completion for a top-down prefix: levels below the boundary keep the
   aggregate at level k-1, which is already structurally complete. *)
let run (st : S.t) inc =
  let orders = S.order_candidates st in
  let top = Sun_arch.Arch.num_levels st.arch - 1 in
  let start =
    let c = S.initial_rows st in
    [ { c with Rows.temporal = S.set c.Rows.temporal top st.bounds } ]
  in
  let select prefixes =
    (* rank by energy: the spatial unrolling of the inner passes is still
       unassigned, so every prefix shares the same (serial) cycle count and
       EDP cannot discriminate *)
    let scored =
      Array.of_list
        (List.filter_map
           (fun c -> Option.map (fun s -> (c, s.Model.s_energy_pj)) (Incumbent.score st inc c))
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
  let rec walk k prefixes =
    if k < 1 then prefixes
    else begin
      let scopes = ref [] in
      let cands = List.concat_map (pass st ~scopes ~orders ~k) prefixes in
      match select (dedup_candidates cands) with
      | [] -> walk (k - 1) prefixes
      | kept -> walk (k - 1) kept
    end
  in
  List.iter
    (fun c -> List.iter (fun split -> ignore (Incumbent.score st inc split)) (lane_split st c))
    (walk top start)
