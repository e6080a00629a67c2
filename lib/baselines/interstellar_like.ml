module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Tree = Sun_core.Tile_tree
module Listx = Sun_util.Listx

type config = {
  unroll_dims : W.dim list;
  min_pe_utilization : float;
  max_order_candidates : int;
}

let default = { unroll_dims = [ "C"; "K" ]; min_pe_utilization = 0.75; max_order_candidates = 24 }

let product a = List.fold_left (fun acc (_, f) -> acc * f) 1 a

let run ?(config = default) ?(binding = Fun.id) w arch =
  let timer = Sun_util.Stopwatch.start () in
  let examined = ref 0 in
  let dims = W.dim_names w in
  let preset = List.filter (fun d -> List.mem d dims) config.unroll_dims in
  if preset = [] then
    (* the tool's unrolling recipe does not apply to this workload *)
    Mapper.failure ~tool:"interstellar-like" ~examined:0
      ~wall_seconds:(Sun_util.Stopwatch.elapsed_s timer)
  else begin
    let ctx = Model.context ~binding w arch in
    let num_levels = A.num_levels arch in
    let spatial_levels =
      List.filter (fun i -> (A.level arch i).A.fanout > 1) (Listx.range num_levels)
    in
    let best = ref None and best_edp = ref Float.infinity in
    (* preset CK unrolling per spatial level, widened only on underfill *)
    let spatial_choices lvl remaining =
      let fanout = (A.level arch lvl).A.fanout in
      let fits factors = Array.fold_left ( * ) 1 factors <= fanout in
      let o = Tree.search ~max_steps:24 ~grow_dims:preset ~remaining ~fits () in
      examined := !examined + o.Tree.explored;
      let threshold = config.min_pe_utilization *. float_of_int fanout in
      let good = List.filter (fun a -> float_of_int (product a) >= threshold) o.Tree.frontier in
      if good <> [] then good
      else begin
        (* CK cannot fill the array: allow the remaining dimensions too *)
        let o2 = Tree.search ~max_steps:24 ~grow_dims:dims ~remaining ~fits () in
        examined := !examined + o2.Tree.explored;
        if o2.Tree.frontier = [] then o.Tree.frontier else o2.Tree.frontier
      end
    in
    let fill assoc = List.map (fun d -> (d, Tree.factor_of assoc d)) dims in
    let fits_level ~level extent =
      let lvl = A.level arch level in
      lvl.A.unbounded
      || List.for_all
           (fun (p : A.partition) ->
             let used =
               List.fold_left
                 (fun acc (op : W.operand) ->
                   match A.partition_for lvl ~role:(binding op.W.name) with
                   | Some p' when p'.A.part_name = p.A.part_name -> acc +. W.footprint extent op
                   | _ -> acc)
                 0.0 w.W.operands
             in
             used <= float_of_int p.A.capacity_words +. 1e-9)
           lvl.A.partitions
    in
    let try_mapping spatials tiles =
      let levels =
        Array.init num_levels (fun i ->
            {
              M.temporal =
                (match List.assoc_opt i tiles with
                | Some t -> fill t
                | None -> List.map (fun d -> (d, 1)) dims);
              order = dims;
              spatial =
                (match List.assoc_opt i spatials with
                | Some s -> fill s
                | None -> List.map (fun d -> (d, 1)) dims);
            })
      in
      let top = num_levels - 1 in
      let levels = M.complete_at_top w levels in
      (* greedy per-level order refinement, inner to outer *)
      let eval ls =
        incr examined;
        match M.make w (Array.to_list ls) with
        | Error _ -> None
        | Ok m -> (
          match Model.evaluate_ctx ctx m with Ok c -> Some (m, c) | Error _ -> None)
      in
      let current = Array.map (fun x -> x) levels in
      for lvl = 1 to top do
        let active = List.filter (fun d -> Tree.factor_of current.(lvl).M.temporal d > 1) dims in
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
    assign_spatial spatial_levels [] (W.bound w) (fun spatials remaining0 ->
        let s_at lvl d =
          List.fold_left
            (fun acc (l, a) -> if l = lvl then acc * Tree.factor_of a d else acc)
            1 spatials
        in
        let rec assign_tiles level tiles base remaining =
          if level >= num_levels - 1 then try_mapping spatials tiles
          else begin
            let base_here d = base d * s_at level d in
            (* monotone, as Tile_tree.search needs: footprints grow with extents *)
            let fits factors =
              let a = Tree.assignment ~grow_dims:dims factors in
              let extent d = base_here d * Tree.factor_of a d in
              fits_level ~level extent
            in
            let o = Tree.search ~max_steps:24 ~grow_dims:dims ~remaining ~fits () in
            examined := !examined + o.Tree.explored;
            List.iter
              (fun t ->
                let base' d = base_here d * Tree.factor_of t d in
                let remaining' d = remaining d / Tree.factor_of t d in
                assign_tiles (level + 1) ((level, t) :: tiles) base' remaining')
              o.Tree.frontier
          end
        in
        assign_tiles 0 [] (fun _ -> 1) remaining0);
    match !best with
    | Some m ->
      Mapper.of_mapping ~tool:"interstellar-like" ~examined:!examined
        ~wall_seconds:(Sun_util.Stopwatch.elapsed_s timer) ~binding w arch (Some m)
    | None ->
      Mapper.failure ~tool:"interstellar-like" ~examined:!examined
        ~wall_seconds:(Sun_util.Stopwatch.elapsed_s timer)
  end
