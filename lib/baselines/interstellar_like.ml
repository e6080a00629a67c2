module W = Sun_tensor.Workload

type config = {
  unroll_dims : W.dim list;
  min_pe_utilization : float;
  max_order_candidates : int;
}

let default = { unroll_dims = [ "C"; "K" ]; min_pe_utilization = 0.75; max_order_candidates = 24 }

let run ?(config = default) ?binding w arch =
  let tool = "interstellar-like" in
  let dims = W.dim_names w in
  let preset = List.filter (fun d -> List.mem d dims) config.unroll_dims in
  if preset = [] then
    (* the tool's unrolling recipe does not apply to this workload *)
    Mapper.failure ~tool ~examined:0 ~wall_seconds:0.0
  else
    (* preset CK unrolling per spatial level, widened only on underfill *)
    let spatial ~fanout ~unroll =
      let ck = unroll preset in
      let threshold = config.min_pe_utilization *. float_of_int fanout in
      match List.filter (fun a -> float_of_int (Enumerator.product a) >= threshold) ck with
      | [] -> (
        (* CK cannot fill the array: allow the remaining dimensions too *)
        match unroll dims with [] -> ck | wide -> wide)
      | good -> good
    in
    Enumerator.run ~tool ~spatial ~tile_floor:(fun _ -> 0.0)
      ~max_order_candidates:config.max_order_candidates ?binding w arch
