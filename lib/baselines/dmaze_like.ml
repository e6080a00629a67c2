module W = Sun_tensor.Workload

type config = {
  l1_min_utilization : float;
  l2_min_utilization : float;
  pe_min_utilization : float;
  allow_spatial_reduction : bool;
  assume_symmetric_conv : bool;
  max_order_candidates : int;
}

let fast =
  {
    l1_min_utilization = 0.8;
    l2_min_utilization = 0.5;
    pe_min_utilization = 0.8;
    allow_spatial_reduction = false;
    assume_symmetric_conv = true;
    max_order_candidates = 24;
  }

let slow =
  {
    l1_min_utilization = 0.6;
    l2_min_utilization = 0.4;
    pe_min_utilization = 0.8;
    allow_spatial_reduction = true;
    assume_symmetric_conv = true;
    max_order_candidates = 24;
  }

let is_asymmetric_conv w =
  match (List.assoc_opt "R" w.W.dims, List.assoc_opt "S" w.W.dims) with
  | Some r, Some s -> r <> s
  | _ -> false

let run ?(config = fast) ?binding w arch =
  let tool = "dmaze-like" in
  if config.assume_symmetric_conv && is_asymmetric_conv w then
    Mapper.failure ~tool ~examined:0 ~wall_seconds:0.0
  else
    let dims = W.dim_names w in
    let grow =
      if config.allow_spatial_reduction then dims
      else List.filter (W.is_indexing (W.output w)) dims
    in
    let spatial ~fanout ~unroll =
      List.filter
        (fun a ->
          float_of_int (Enumerator.product a) >= config.pe_min_utilization *. float_of_int fanout)
        (unroll grow)
    in
    let tile_floor level =
      if level = 0 then config.l1_min_utilization else config.l2_min_utilization
    in
    Enumerator.run ~tool ~spatial ~tile_floor ~max_order_candidates:config.max_order_candidates
      ?binding w arch
