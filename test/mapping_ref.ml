(* The list-based [Mapping.make] validator the positional one replaced,
   kept as the oracle of test_mapping's differential property: every check
   resolves dims by name (assoc lookups, sorted name lists), so a rule and
   its error string are easy to read off. *)

module W = Sun_tensor.Workload
module M = Sun_mapping.Mapping

let ( let* ) = Result.bind

let factor assoc d = match List.assoc_opt d assoc with Some f -> f | None -> 1

let make w (levels : M.level_mapping list) =
  let dims = W.dim_names w in
  let sorted_dims = List.sort String.compare dims in
  let first_error f xs =
    List.fold_left (fun acc x -> match acc with Error _ -> acc | Ok () -> f x) (Ok ()) xs
  in
  let check_level (i, (lm : M.level_mapping)) =
    let known_factors assoc kind =
      first_error
        (fun (d, f) ->
          if not (List.mem d dims) then
            Error (Printf.sprintf "level %d: unknown dim %s in %s factors" i d kind)
          else if f < 1 then Error (Printf.sprintf "level %d: %s factor of %s is %d" i kind d f)
          else Ok ())
        assoc
    in
    let covers assoc kind =
      if List.sort String.compare (List.map fst assoc) <> sorted_dims then
        Error
          (Printf.sprintf "level %d: %s factors must cover each workload dim exactly once" i kind)
      else Ok ()
    in
    let* () = known_factors lm.M.temporal "temporal" in
    let* () = known_factors lm.M.spatial "spatial" in
    let* () = covers lm.M.temporal "temporal" in
    let* () = covers lm.M.spatial "spatial" in
    if List.sort String.compare lm.M.order <> sorted_dims then
      Error (Printf.sprintf "level %d: order is not a permutation of the workload dims" i)
    else Ok ()
  in
  let* () = first_error check_level (List.mapi (fun i lm -> (i, lm)) levels) in
  let placed d =
    List.fold_left
      (fun acc (lm : M.level_mapping) -> acc * factor lm.M.temporal d * factor lm.M.spatial d)
      1 levels
  in
  let* () =
    first_error
      (fun d ->
        let p = placed d and bound = W.bound w d in
        if p = bound then Ok ()
        else Error (Printf.sprintf "dim %s: factors multiply to %d, bound is %d" d p bound))
      dims
  in
  Ok { M.levels = Array.of_list levels }
