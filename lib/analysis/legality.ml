module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module D = Diagnostic
module Probe = Sun_cost.Probe

let level_mismatch ~levels a =
  Option.to_list
    (Option.map (D.error D.Level_mismatch) (Sun_cost.Model.level_count_violation a levels))

let structural_diagnostic v =
  let msg = M.violation_message v in
  match (v : M.violation) with
  | Unknown_dim { level; dim; _ } -> D.error ~level ~dim D.Unknown_dim msg
  | Nonpositive_factor { level; dim; _ } -> D.error ~level ~dim D.Nonpositive_factor msg
  | Bad_coverage { level; missing; duplicated; _ } ->
    let detail label ds = if ds = [] then "" else "; " ^ label ^ " " ^ String.concat ", " ds in
    D.error ~level D.Bad_coverage (msg ^ detail "missing" missing ^ detail "duplicated" duplicated)
  | Bad_order { level; _ } -> D.error ~level D.Bad_order msg
  | Bad_product { dim; _ } -> D.error ~dim D.Bad_coverage msg

let check_levels ?arch (w : W.t) (levels : M.level_mapping list) =
  let n = List.length levels in
  (match arch with Some a -> level_mismatch ~levels:n a | None -> [])
  @ List.map structural_diagnostic (M.violations w levels)

let check ?(binding = Fun.id) (w : W.t) (a : A.t) (m : M.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let nlevels = min (M.num_levels m) (A.num_levels a) in
  List.iter add (level_mismatch ~levels:(M.num_levels m) a);
  let probe = Probe.create w in
  let fit = Probe.fit_table probe w a ~binding in
  let ext = Probe.extents probe in
  let dims = W.dim_names w in
  for li = 0 to nlevels - 1 do
    (* spatial unrolling within the PE array *)
    (match A.unroll_violation (A.level a li) (M.spatial_product m ~level:li) with
    | Some msg -> add (D.error ~level:li D.Unroll_overflow msg)
    | None -> ());
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

(* No structural diagnostic means [Mapping.make] accepts the levels: both
   read the one scan [Mapping.violations]. *)
let check_all ?binding w a levels =
  match check_levels ~arch:a w levels with
  | [] -> check ?binding w a { M.levels = Array.of_list levels }
  | structural -> structural
