module W = Sun_tensor.Workload
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Probe = Sun_cost.Probe
module Trie = Sun_core.Order_trie
module Tree = Sun_core.Tile_tree
module Unroll = Sun_core.Unroll

let lanes = 256

(* Each operand in the buffer [Compiler.default_placement] gives it, by the
   role that buffer's partition of the preset's [Buf] level accepts. *)
let placement_binding w =
  let place = Compiler.default_placement w in
  fun op -> match place op with Isa.NBin -> "ifmap" | Isa.SB -> "weight" | Isa.NBout -> "ofmap"

let simulate w m =
  let program = Compiler.compile w m in
  (program, Simulator.run w program)

let score (r : Simulator.result) = Simulator.total r.Simulator.energy

(* Enumerate the (order, lane-unrolling, tile) candidates of the 2-level
   machine — the same pruned sets the scheduler uses — and keep those whose
   analytic energy is within [prefilter] of the best; only the survivors
   pay for a full ISA-level simulation. *)
let tune w seed =
  let dims = W.dim_names w in
  let arch = Sun_arch.Presets.diannao_like in
  let ctx = Model.context w arch in
  let probe = Probe.create w in
  let fit = Probe.fit_table probe w arch ~binding:(placement_binding w) in
  let ext = Probe.extents probe in
  let orders = Trie.candidates w in
  let candidates = ref [ seed ] in
  let table = Tree.table () in
  List.iter
    (fun (op : W.operand) ->
      let grow = W.indexing_dims op in
      let unrolls =
        Unroll.candidates ~table ~fanout:lanes
          ~remaining:(Array.of_list (List.map (W.bound w) grow))
          ~min_utilization:0.5 ()
      in
      List.iter
        (fun spatial ->
          let u d = Tree.factor_of spatial d in
          let remaining d = W.bound w d / u d in
          let fits factors =
            List.iteri (fun i d -> ext.(i) <- u d * factors.(i)) dims;
            Probe.level_fits probe fit ~level:0 ext
          in
          let tiles =
            Tree.search ~max_steps:16 ~table
              ~remaining:(Array.of_list (List.map remaining dims))
              ~fits ()
          in
          List.iter
            (fun tile ->
              let t0 = Tree.factor_of (Tree.assignment ~grow_dims:dims tile) in
              List.iter
                (fun (o : Trie.candidate) ->
                  let level0 =
                    {
                      M.temporal = List.map (fun d -> (d, t0 d)) dims;
                      order = dims;
                      spatial = List.map (fun d -> (d, u d)) dims;
                    }
                  in
                  let level1 =
                    {
                      M.temporal = List.map (fun d -> (d, W.bound w d / (t0 d * u d))) dims;
                      order = o.Trie.order;
                      spatial = List.map (fun d -> (d, 1)) dims;
                    }
                  in
                  match M.make w [ level0; level1 ] with
                  | Ok m -> candidates := m :: !candidates
                  | Error _ -> ())
                orders)
            tiles.Tree.frontier)
        (List.map (Tree.assignment ~grow_dims:grow) unrolls.Unroll.candidates))
    w.W.operands;
  (* analytic prefilter *)
  let scored =
    List.filter_map
      (fun m ->
        match Model.evaluate_ctx ctx m with
        | Ok c -> Some (m, c.Model.energy_pj)
        | Error _ -> None)
      !candidates
  in
  let best_energy = List.fold_left (fun acc (_, e) -> Float.min acc e) infinity scored in
  let survivors =
    List.filter_map (fun (m, e) -> if e <= best_energy *. 2.5 then Some (m, e) else None) scored
  in
  let survivors = List.sort (fun (_, a) (_, b) -> compare a b) survivors in
  let survivors = List.map fst (Sun_util.Listx.take 48 survivors) in
  let survivors = if survivors = [] then [ seed ] else survivors in
  (* simulate the survivors; the seed is always among the candidates *)
  let best = ref None in
  List.iter
    (fun m ->
      let _, result = simulate w m in
      match !best with
      | Some (_, _, r) when score r <= score result -> ()
      | _ ->
        let program = Compiler.compile w m in
        best := Some (m, program, result))
    survivors;
  match !best with
  | Some (m, program, result) -> (m, program, result)
  | None ->
    let program, result = simulate w seed in
    (seed, program, result)
