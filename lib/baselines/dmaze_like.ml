module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Tree = Sun_core.Tile_tree
module Listx = Sun_util.Listx

type config = {
  l1_min_utilization : float;
  l2_min_utilization : float;
  pe_min_utilization : float;
  allow_spatial_reduction : bool;
  assume_symmetric_conv : bool;
  max_order_candidates : int;
  max_wall_seconds : float;
}

let fast =
  {
    l1_min_utilization = 0.8;
    l2_min_utilization = 0.5;
    pe_min_utilization = 0.8;
    allow_spatial_reduction = false;
    assume_symmetric_conv = true;
    max_order_candidates = 24;
    max_wall_seconds = 60.0;
  }

let slow =
  {
    l1_min_utilization = 0.6;
    l2_min_utilization = 0.4;
    pe_min_utilization = 0.8;
    allow_spatial_reduction = true;
    assume_symmetric_conv = true;
    max_order_candidates = 24;
    max_wall_seconds = 120.0;
  }

let is_asymmetric_conv w =
  match (List.assoc_opt "R" w.W.dims, List.assoc_opt "S" w.W.dims) with
  | Some r, Some s -> r <> s
  | _ -> false

(* Occupied fraction of a level, computed directly from extents. *)
let fill_fraction w arch binding ~level extent =
  let lvl = A.level arch level in
  let fraction_of (p : A.partition) =
    if p.A.capacity_words = 0 then 1.0
    else
      let used =
        List.fold_left
          (fun acc (op : W.operand) ->
            match A.partition_for lvl ~role:(binding op.W.name) with
            | Some p' when p'.A.part_name = p.A.part_name -> acc +. W.footprint extent op
            | _ -> acc)
          0.0 w.W.operands
      in
      used /. float_of_int p.A.capacity_words
  in
  List.fold_left (fun acc p -> Float.max acc (fraction_of p)) 0.0 lvl.A.partitions

let product a = List.fold_left (fun acc (_, f) -> acc * f) 1 a

let run ?(config = fast) ?(binding = Fun.id) w arch =
  let timer = Sun_util.Stopwatch.start () in
  let examined = ref 0 in
  if config.assume_symmetric_conv && is_asymmetric_conv w then
    Mapper.failure ~tool:"dmaze-like" ~examined:0
      ~wall_seconds:(Sun_util.Stopwatch.elapsed_s timer)
  else begin
    let ctx = Model.context ~binding w arch in
    let dims = W.dim_names w in
    let num_levels = A.num_levels arch in
    let out = W.output w in
    let best = ref None and best_edp = ref Float.infinity in
    (* spatial levels and their candidate unrollings *)
    let spatial_levels =
      List.filter (fun i -> (A.level arch i).A.fanout > 1) (Listx.range num_levels)
    in
    let spatial_choices lvl remaining =
      let fanout = (A.level arch lvl).A.fanout in
      let grow =
        if config.allow_spatial_reduction then dims
        else List.filter (fun d -> W.is_indexing out d) dims
      in
      let fits factors = Array.fold_left ( * ) 1 factors <= fanout in
      let o = Tree.search ~max_steps:24 ~grow_dims:grow ~remaining ~fits () in
      examined := !examined + o.Tree.explored;
      List.filter
        (fun a -> float_of_int (product a) >= config.pe_min_utilization *. float_of_int fanout)
        o.Tree.frontier
    in
    (* tile candidates at a memory level meeting the utilization floor *)
    let tile_choices ~level ~floor ~base remaining =
      (* monotone, as Tile_tree.search needs: footprints grow with extents *)
      let fits factors =
        let a = Tree.assignment ~grow_dims:dims factors in
        let extent d = base d * Tree.factor_of a d in
        fill_fraction w arch binding ~level extent <= 1.0 +. 1e-9
      in
      let o = Tree.search ~max_steps:24 ~grow_dims:dims ~remaining ~fits () in
      examined := !examined + o.Tree.explored;
      List.filter
        (fun a ->
          let extent d = base d * Tree.factor_of a d in
          fill_fraction w arch binding ~level extent >= floor)
        o.Tree.frontier
    in
    let fill_levels assoc = List.map (fun d -> (d, Tree.factor_of assoc d)) dims in
    (* enumerate: spatial (innermost spatial level treated jointly for the
       common two-on-chip-level machines), then L1 and L2 tiles *)
    let rec assign_spatial levels acc remaining k =
      match levels with
      | [] -> k acc remaining
      | lvl :: rest ->
        List.iter
          (fun a ->
            let remaining' d = remaining d / Tree.factor_of a d in
            assign_spatial rest ((lvl, a) :: acc) remaining' k)
          (spatial_choices lvl remaining)
    in
    let utilization_floor level =
      if level = 0 then config.l1_min_utilization
      else if level = num_levels - 1 then 0.0
      else config.l2_min_utilization
    in
    let out_of_time () = Sun_util.Stopwatch.elapsed_s timer > config.max_wall_seconds in
    let try_mapping ~spatials ~tiles =
      (* orders: per level, greedy best over permutations of active dims *)
      let base_levels =
        Array.init num_levels (fun i ->
            {
              M.temporal =
                (match List.assoc_opt i tiles with
                | Some t -> fill_levels t
                | None -> List.map (fun d -> (d, 1)) dims);
              order = dims;
              spatial =
                (match List.assoc_opt i spatials with
                | Some s -> fill_levels s
                | None -> List.map (fun d -> (d, 1)) dims);
            })
      in
      (* place the residual at DRAM *)
      let base_levels = M.complete_at_top w base_levels in
      let top = num_levels - 1 in
      let eval levels =
        incr examined;
        match M.make w (Array.to_list levels) with
        | Error _ -> None
        | Ok m -> (
          match Model.evaluate_ctx ctx m with Ok c -> Some (m, c) | Error _ -> None)
      in
      let current = Array.map (fun x -> x) base_levels in
      for lvl = 1 to top do
        let active =
          List.filter (fun d -> Tree.factor_of current.(lvl).M.temporal d > 1) dims
        in
        if List.length active > 1 then begin
          let perms = Listx.take config.max_order_candidates (Listx.permutations active) in
          let rest = List.filter (fun d -> not (List.mem d active)) dims in
          let best_perm = ref None and best_perm_edp = ref Float.infinity in
          List.iter
            (fun perm ->
              let trial = Array.map (fun x -> x) current in
              trial.(lvl) <- { (trial.(lvl)) with M.order = rest @ perm };
              match eval trial with
              | Some (_, c) when c.Model.edp < !best_perm_edp ->
                best_perm_edp := c.Model.edp;
                best_perm := Some (rest @ perm)
              | _ -> ())
            perms;
          match !best_perm with
          | Some order -> current.(lvl) <- { (current.(lvl)) with M.order = order }
          | None -> ()
        end
      done;
      match eval current with
      | Some (m, c) when c.Model.edp < !best_edp ->
        best_edp := c.Model.edp;
        best := Some m
      | _ -> ()
    in
    assign_spatial spatial_levels [] (W.bound w) (fun spatials remaining0 ->
        let s_at lvl d =
          List.fold_left
            (fun acc (l, a) -> if l = lvl then acc * Tree.factor_of a d else acc)
            1 spatials
        in
        (* tiles bottom-up across bounded levels; [base] carries the extents
           fixed strictly below the level, and the level's own spatial
           factors join its resident tile *)
        let rec assign_tiles level tiles base remaining =
          if out_of_time () then ()
          else if level >= num_levels - 1 then try_mapping ~spatials ~tiles
          else begin
            let base_here d = base d * s_at level d in
            let choices =
              tile_choices ~level ~floor:(utilization_floor level) ~base:base_here remaining
            in
            List.iter
              (fun t ->
                let base' d = base_here d * Tree.factor_of t d in
                let remaining' d = remaining d / Tree.factor_of t d in
                assign_tiles (level + 1) ((level, t) :: tiles) base' remaining')
              choices
          end
        in
        assign_tiles 0 [] (fun _ -> 1) remaining0);
    match !best with
    | Some m ->
      Mapper.of_mapping ~tool:"dmaze-like" ~examined:!examined
        ~wall_seconds:(Sun_util.Stopwatch.elapsed_s timer) ~binding w arch (Some m)
    | None ->
      Mapper.failure ~tool:"dmaze-like" ~examined:!examined
        ~wall_seconds:(Sun_util.Stopwatch.elapsed_s timer)
  end
