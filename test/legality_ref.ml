(* The [Legality.check_levels] that re-derived [Mapping.make]'s rules on
   its own, kept as the oracle of test_analysis's differential property:
   the renderer of [Mapping.violations] must report the same multiset of
   (code, severity, level, dim) on malformed level lists. *)

module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module D = Sun_analysis.Diagnostic

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
