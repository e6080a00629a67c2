module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module Rows = M.Rows
module Model = Sun_cost.Model
module Probe = Sun_cost.Probe
module Tree = Sun_core.Tile_tree
module Listx = Sun_util.Listx

let examined_budget = 12_000_000

type unrolling = Tree.assignment

let product a = List.fold_left (fun acc (_, f) -> acc * f) 1 a

let run ~tool ~spatial:choose ~tile_floor ~max_order_candidates ?(binding = Fun.id) w arch =
  let timer = Sun_util.Stopwatch.start () in
  let examined = ref 0 in
  let ctx = Model.context ~binding w arch in
  let probe = Probe.create w in
  let fit_table = Probe.fit_table probe w arch ~binding in
  let dims = W.dim_names w in
  let n = List.length dims in
  let num_levels = A.num_levels arch in
  let top = num_levels - 1 in
  let bounds = Array.of_list (List.map (W.bound w) dims) in
  let row_of a = Array.of_list (List.map (Tree.factor_of a) dims) in
  let table = Tree.table () in
  let search ~grow ~remaining ~fits =
    let o =
      Tree.search ~max_steps:24 ~table
        ~remaining:(Array.of_list (List.map (fun d -> remaining.(Probe.dim_index probe d)) grow))
        ~fits ()
    in
    examined := !examined + o.Tree.explored;
    List.map (Tree.assignment ~grow_dims:grow) o.Tree.frontier
  in
  (* The probe's extents hold the tile [base * factors] of a tile search
     over every dim. *)
  let load base factors =
    let ext = Probe.extents probe in
    for j = 0 to n - 1 do
      ext.(j) <- base.(j) * factors.(j)
    done
  in
  let best = ref None and best_edp = ref Float.infinity in
  (* every factor divides what its level had left, so the rows always
     cover the bounds exactly *)
  let score r =
    incr examined;
    match Model.score_rows ctx r with Ok s -> Some s.Model.s_edp | Error _ -> None
  in
  (* The residual of each dim goes to the top level; then, level by level
     from the one above the innermost, the best of at most
     [max_order_candidates] orders of its active loops is kept. *)
  let try_mapping temporal spatial =
    let temporal = Array.copy temporal in
    let placed j =
      let acc = ref 1 in
      for l = 0 to top do
        acc := !acc * temporal.(l).(j) * spatial.(l).(j)
      done;
      !acc
    in
    temporal.(top) <- Array.init n (fun j -> bounds.(j) / placed j);
    let r = { Rows.temporal; spatial; order = Array.make num_levels (Array.init n Fun.id) } in
    for lvl = 1 to top do
      let active = List.filter (fun j -> temporal.(lvl).(j) > 1) (Listx.range n) in
      if List.length active > 1 then begin
        let rest = List.filter (fun j -> not (List.mem j active)) (Listx.range n) in
        let kept = r.Rows.order.(lvl) in
        let best_perm = ref None and best_perm_edp = ref Float.infinity in
        List.iter
          (fun perm ->
            let order = Array.of_list (rest @ perm) in
            r.Rows.order.(lvl) <- order;
            match score r with
            | Some edp when edp < !best_perm_edp ->
              best_perm_edp := edp;
              best_perm := Some order
            | _ -> ())
          (Listx.permutations ~limit:max_order_candidates active);
        r.Rows.order.(lvl) <- Option.value !best_perm ~default:kept
      end
    done;
    match score r with
    | Some edp when edp < !best_edp ->
      best_edp := edp;
      best := Some r
    | _ -> ()
  in
  let ones = Array.make n 1 in
  (* Spatial factors per fanned-out level, innermost first; then tiles
     bottom-up across the bounded levels. [base] holds the extents fixed
     strictly below [level]; the level's own spatial factors join its
     resident tile. *)
  let rec assign_spatial levels spatial remaining =
    match levels with
    | [] -> assign_tiles 0 (Array.make num_levels ones) spatial ones remaining
    | lvl :: rest ->
      let fanout = (A.level arch lvl).A.fanout in
      let unroll grow =
        search ~grow ~remaining ~fits:(fun f -> Array.fold_left ( * ) 1 f <= fanout)
      in
      List.iter
        (fun a ->
          let s = row_of a in
          let spatial = Array.copy spatial in
          spatial.(lvl) <- s;
          assign_spatial rest spatial (Array.mapi (fun j r -> r / s.(j)) remaining))
        (choose ~fanout ~unroll)
  and assign_tiles level temporal spatial base remaining =
    if !examined >= examined_budget then ()
    else if level >= top then try_mapping temporal spatial
    else begin
      let base_here = Array.mapi (fun j b -> b * spatial.(level).(j)) base in
      let frontier =
        search ~grow:dims ~remaining ~fits:(fun f ->
            load base_here f;
            Probe.level_fits probe fit_table ~level (Probe.extents probe))
      in
      let floor = tile_floor level in
      let choices =
        if floor <= 0.0 then frontier
        else
          List.filter
            (fun a ->
              load base_here (row_of a);
              Probe.fill probe fit_table ~level (Probe.extents probe) >= floor)
            frontier
      in
      List.iter
        (fun a ->
          let t = row_of a in
          let temporal = Array.copy temporal in
          temporal.(level) <- t;
          assign_tiles (level + 1) temporal spatial
            (Array.mapi (fun j b -> b * t.(j)) base_here)
            (Array.mapi (fun j r -> r / t.(j)) remaining))
        choices
    end
  in
  assign_spatial
    (List.filter (fun i -> (A.level arch i).A.fanout > 1) (Listx.range num_levels))
    (Array.make num_levels ones) bounds;
  let mapping = Option.map (fun r -> M.make_exn w (Rows.to_levels w r)) !best in
  Mapper.of_mapping ~tool ~examined:!examined ~wall_seconds:(Sun_util.Stopwatch.elapsed_s timer)
    ~binding w arch mapping
