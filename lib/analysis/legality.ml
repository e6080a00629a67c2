module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module D = Diagnostic
module Probe = Sun_cost.Probe

let check_levels ?arch (w : W.t) (levels : M.level_mapping list) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let dims = W.dim_names w in
  let sorted_dims = List.sort String.compare dims in
  (match arch with
  | Some a when List.length levels <> A.num_levels a ->
    add
      (D.error D.Level_mismatch
         (Printf.sprintf "mapping has %d levels, architecture %s has %d" (List.length levels)
            a.A.arch_name (A.num_levels a)))
  | _ -> ());
  let check_factors li kind assoc =
    List.iter
      (fun (d, f) ->
        if not (List.mem d dims) then
          add
            (D.error ~level:li ~dim:d D.Unknown_dim
               (Printf.sprintf "%s factor names unknown dim %s" kind d));
        if f < 1 then
          add
            (D.error ~level:li ~dim:d D.Nonpositive_factor
               (Printf.sprintf "%s factor of %s is %d (must be >= 1)" kind d f)))
      assoc;
    let names = List.sort String.compare (List.map fst assoc) in
    if names <> sorted_dims then begin
      let missing = List.filter (fun d -> not (List.mem_assoc d assoc)) dims in
      let dups =
        let rec go = function
          | a :: (b :: _ as rest) -> if a = b then a :: go rest else go rest
          | _ -> []
        in
        Sun_util.Listx.unique String.compare (go names)
      in
      let detail =
        String.concat "; "
          (List.filter
             (fun s -> s <> "")
             [
               (if missing = [] then "" else "missing " ^ String.concat ", " missing);
               (if dups = [] then "" else "duplicated " ^ String.concat ", " dups);
             ])
      in
      add
        (D.error ~level:li D.Bad_coverage
           (Printf.sprintf "%s factors must cover each workload dim exactly once%s" kind
              (if detail = "" then "" else ": " ^ detail)))
    end
  in
  List.iteri
    (fun li (lm : M.level_mapping) ->
      check_factors li "temporal" lm.M.temporal;
      check_factors li "spatial" lm.M.spatial;
      if List.sort String.compare lm.M.order <> sorted_dims then
        add
          (D.error ~level:li D.Bad_order
             (Printf.sprintf "order [%s] is not a permutation of the workload dims"
                (String.concat ", " lm.M.order))))
    levels;
  (* per-dim factor products against the workload bounds *)
  List.iter
    (fun d ->
      let product =
        List.fold_left
          (fun acc (lm : M.level_mapping) ->
            let f assoc = match List.assoc_opt d assoc with Some x when x >= 1 -> x | _ -> 1 in
            acc * f lm.M.temporal * f lm.M.spatial)
          1 levels
      in
      let bound = W.bound w d in
      if product <> bound then
        add
          (D.error ~dim:d D.Bad_coverage
             (Printf.sprintf "factors of %s multiply to %d, workload bound is %d" d product bound)))
    dims;
  List.rev !diags

let check ?(binding = Fun.id) (w : W.t) (a : A.t) (m : M.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let nlevels = min (M.num_levels m) (A.num_levels a) in
  if M.num_levels m <> A.num_levels a then
    add
      (D.error D.Level_mismatch
         (Printf.sprintf "mapping has %d levels, architecture %s has %d" (M.num_levels m)
            a.A.arch_name (A.num_levels a)));
  let probe = Probe.create w in
  let fit = Probe.fit_table probe w a ~binding in
  let ext = Probe.extents probe in
  let dims = W.dim_names w in
  for li = 0 to nlevels - 1 do
    let lvl = A.level a li in
    (* spatial unrolling within the PE-array fanout *)
    let sp = M.spatial_product m ~level:li in
    if sp > lvl.A.fanout then
      add
        (D.error ~level:li D.Unroll_overflow
           (Printf.sprintf "level %s unrolls %d spatial instances, fanout is %d" lvl.A.level_name
              sp lvl.A.fanout));
    (* per-partition tile footprints within buffer capacities *)
    if fit.(li).Probe.bounded then begin
      List.iteri (fun i d -> ext.(i) <- M.tile_at m ~level:li d) dims;
      Array.iter
        (fun (pf : Probe.part_fit) ->
          if Probe.overflows probe pf ext then
            add
              (D.error ~level:li ~partition:pf.Probe.part.A.part_name D.Capacity_overflow
                 (Printf.sprintf "tile footprint %.0f words exceeds capacity %d of partition %s"
                    (Probe.occupancy probe pf ext) pf.Probe.part.A.capacity_words
                    pf.Probe.part.A.part_name)))
        fit.(li).Probe.parts
    end
  done;
  List.rev !diags

let check_all ?binding w a levels =
  let structural = check_levels ~arch:a w levels in
  if D.has_errors structural then structural
  else
    match M.make w levels with
    | Ok m -> structural @ check ?binding w a m
    | Error msg ->
      (* unreachable if check_levels mirrors Mapping.make faithfully; keep a
         diagnostic rather than an exception so the two can drift safely *)
      structural @ [ D.error D.Bad_coverage ("mapping rejected: " ^ msg) ]
