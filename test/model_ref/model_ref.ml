(* Frozen copy of the cost model evaluator as it stood before the
   allocation-free rewrite of [Model]. It is kept verbatim (telemetry and
   pretty-printing removed) as the reference implementation: the golden
   bit-identity suite proves [Model.evaluate_ctx] returns byte-identical
   cost records against this module on every registry workload, and
   [bench evaluate] measures the rewrite's speedup against it. Do not
   optimize this file. *)

module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module U = Sun_cost.Units

type binding = string -> string

type transfer = Model.transfer = {
  operand : string;
  from_level : int;
  to_level : int;
  reads : float;
  fills : float;
  noc_deliveries : float;
}

type cost = Model.cost = {
  energy_pj : float;
  cycles : float;
  edp : float;
  macs : float;
  transfers : transfer list;
  breakdown : (string * float) list;
  spatial_utilization : float;
}

type part_ref = {
  gid : int;
  part : A.partition;
}

type op_info = {
  op : W.operand;
  is_output : bool;
  axes : (int * int) array array;
  indexing : bool array;
  sliding : bool array;
  part_at : part_ref option array;
  storing : int array;
}

type ctx = {
  w : W.t;
  arch : A.t;
  binding : binding;
  ndims : int;
  dim_of : (string, int) Hashtbl.t;
  bounds : int array;
  nlevels : int;
  levels : A.level array;
  macs : float;
  operands : op_info array;
  part_names : string array;
  part_level : int array;
  parts : A.partition array;
  nparts : int;
}

let context ?(binding = Fun.id) w arch =
  let dims = W.dim_names w in
  let ndims = List.length dims in
  let dim_of = Hashtbl.create 8 in
  List.iteri (fun i d -> Hashtbl.replace dim_of d i) dims;
  let bounds = Array.of_list (List.map (fun d -> W.bound w d) dims) in
  let levels = Array.of_list arch.A.levels in
  let nlevels = Array.length levels in
  let parts = ref [] and part_names = ref [] and part_level = ref [] in
  let gid_of = Hashtbl.create 8 in
  Array.iteri
    (fun li (lvl : A.level) ->
      List.iter
        (fun (p : A.partition) ->
          let gid = List.length !parts in
          Hashtbl.replace gid_of (li, p.A.part_name) gid;
          parts := !parts @ [ p ];
          part_names := !part_names @ [ p.A.part_name ];
          part_level := !part_level @ [ li ])
        lvl.A.partitions)
    levels;
  let nparts = List.length !parts in
  let op_info (op : W.operand) =
    let axes =
      Array.of_list
        (List.map
           (fun idx ->
             match idx with
             | W.Dim d -> [| (Hashtbl.find dim_of d, 1) |]
             | W.Affine terms ->
               Array.of_list (List.map (fun (d, c) -> (Hashtbl.find dim_of d, c)) terms))
           op.W.indices)
    in
    let indexing = Array.make ndims false in
    Array.iter (fun terms -> Array.iter (fun (d, _) -> indexing.(d) <- true) terms) axes;
    let sliding = Array.make ndims false in
    Array.iter
      (fun terms -> if Array.length terms > 1 then Array.iter (fun (d, _) -> sliding.(d) <- true) terms)
      axes;
    let role = binding op.W.name in
    let part_at =
      Array.map
        (fun (lvl : A.level) ->
          match A.partition_for lvl ~role with
          | Some p ->
            let li = ref (-1) in
            Array.iteri (fun i l -> if l == lvl then li := i) levels;
            Some { gid = Hashtbl.find gid_of (!li, p.A.part_name); part = p }
          | None -> None)
        levels
    in
    let storing =
      Array.of_list
        (List.concat
           (List.init nlevels (fun i -> if part_at.(i) <> None then [ i ] else [])))
    in
    { op; is_output = op.W.kind = `Output; axes; indexing; sliding; part_at; storing }
  in
  {
    w;
    arch;
    binding;
    ndims;
    dim_of;
    bounds;
    nlevels;
    levels;
    macs = W.macs w;
    operands = Array.of_list (List.map op_info w.W.operands);
    part_names = Array.of_list !part_names;
    part_level = Array.of_list !part_level;
    parts = Array.of_list !parts;
    nparts;
  }

type mlay = {
  t : int array array;
  s : int array array;
  order : int array array;
  cum : int array array;
}

let convert ctx (m : M.t) =
  let n = ctx.nlevels in
  let t = Array.make_matrix n ctx.ndims 1 in
  let s = Array.make_matrix n ctx.ndims 1 in
  let order = Array.make n [||] in
  for l = 0 to n - 1 do
    let lm = m.M.levels.(l) in
    List.iter (fun (d, f) -> t.(l).(Hashtbl.find ctx.dim_of d) <- f) lm.M.temporal;
    List.iter (fun (d, f) -> s.(l).(Hashtbl.find ctx.dim_of d) <- f) lm.M.spatial;
    order.(l) <- Array.of_list (List.map (Hashtbl.find ctx.dim_of) lm.M.order)
  done;
  let cum = Array.make_matrix n ctx.ndims 1 in
  for l = 0 to n - 1 do
    for d = 0 to ctx.ndims - 1 do
      cum.(l).(d) <- (if l = 0 then 1 else cum.(l - 1).(d)) * t.(l).(d) * s.(l).(d)
    done
  done;
  { t; s; order; cum }

let axis_extent extents terms =
  let acc = ref 1 in
  Array.iter (fun (d, c) -> acc := !acc + (c * (extents.(d) - 1))) terms;
  !acc

let footprint (info : op_info) extents =
  let acc = ref 1.0 in
  Array.iter (fun terms -> acc := !acc *. float_of_int (axis_extent extents terms)) info.axes;
  !acc

let spatial_product lay l =
  Array.fold_left (fun acc f -> acc * f) 1 lay.s.(l)

let part_ref_at (info : op_info) l =
  match info.part_at.(l) with
  | Some r -> r
  | None ->
    invalid_arg (Printf.sprintf "Model_ref: operand %s has no partition at level %d" info.op.W.name l)

let validate_lay ctx lay =
  let violation = ref None in
  let set msg = if !violation = None then violation := Some msg in
  Array.iter
    (fun info ->
      if Array.length info.storing = 0 then
        set
          (Printf.sprintf "operand %s is stored at no level (no partition accepts its role)"
             info.op.W.name))
    ctx.operands;
  for l = 0 to ctx.nlevels - 1 do
    let lvl = ctx.levels.(l) in
    let sp = spatial_product lay l in
    if sp > lvl.A.fanout then
      set
        (Printf.sprintf "level %s: spatial unrolling %d exceeds fanout %d" lvl.A.level_name sp
           lvl.A.fanout)
  done;
  if !violation = None then begin
    let used : U.word U.count U.t array = Array.make ctx.nparts U.zero in
    Array.iter
      (fun info ->
        for l = 0 to ctx.nlevels - 1 do
          match info.part_at.(l) with
          | Some { gid; _ } -> used.(gid) <- U.(used.(gid) +: count (footprint info lay.cum.(l)))
          | None -> ()
        done)
      ctx.operands;
    for gid = 0 to ctx.nparts - 1 do
      let l = ctx.part_level.(gid) in
      if not ctx.levels.(l).A.unbounded then begin
        let p = ctx.parts.(gid) in
        if U.gt used.(gid) (U.count (float_of_int p.A.capacity_words +. 1e-9)) then
          set
            (Printf.sprintf "partition %s at %s: footprint %.0f exceeds capacity %d"
               ctx.part_names.(gid) ctx.levels.(l).A.level_name
               (U.to_float used.(gid)) p.A.capacity_words)
      end
    done
  end;
  match !violation with None -> Ok () | Some msg -> Error msg

let chain_pair ctx lay (info : op_info) ~lc ~lp =
  let top = ctx.nlevels - 1 in
  let cum = Array.copy lay.cum.(lc) in
  let reads_mult = ref 1.0 and fills_mult = ref 1.0 in
  for j = lc + 1 to top do
    let multicast = ctx.levels.(j).A.multicast in
    let srow = lay.s.(j) in
    for d = 0 to ctx.ndims - 1 do
      let f = srow.(d) in
      if f > 1 then
        if info.indexing.(d) then cum.(d) <- cum.(d) * f
        else if j <= lp then begin
          fills_mult := !fills_mult *. float_of_int f;
          if not multicast then reads_mult := !reads_mult *. float_of_int f
        end
        else begin
          reads_mult := !reads_mult *. float_of_int f;
          fills_mult := !fills_mult *. float_of_int f
        end
    done
  done;
  let stopped = ref false and outer = ref 1.0 in
  for j = lc + 1 to top do
    let ord = lay.order.(j) and trow = lay.t.(j) in
    for i = Array.length ord - 1 downto 0 do
      let d = ord.(i) in
      let b = trow.(d) in
      if b > 1 then
        if !stopped then outer := !outer *. float_of_int b
        else if not info.indexing.(d) then ()
        else if info.sliding.(d) then begin
          cum.(d) <- cum.(d) * b;
          stopped := true
        end
        else begin
          stopped := true;
          outer := !outer *. float_of_int b
        end
    done
  done;
  let fp = footprint info cum in
  let reads = !outer *. fp *. !reads_mult in
  let fills = !outer *. fp *. !fills_mult in
  (reads, fills)

let mac_streaming ctx lay (info : op_info) ~l0 =
  let denom = ref 1.0 in
  for j = 0 to l0 do
    if ctx.levels.(j).A.multicast then begin
      let srow = lay.s.(j) in
      for d = 0 to ctx.ndims - 1 do
        if srow.(d) > 1 && not info.indexing.(d) then
          denom := !denom *. float_of_int srow.(d)
      done
    end
  done;
  ctx.macs /. !denom

let evaluate_lay ctx lay =
  let energy : U.energy U.t array = Array.make ctx.nparts U.zero in
  let words : U.access U.count U.t array = Array.make ctx.nparts U.zero in
  let noc_energy = ref (U.zero : U.energy U.t) in
  let transfers = ref [] in
  Array.iter
    (fun info ->
      let storing = info.storing in
      let nst = Array.length storing in
      if nst = 0 then invalid_arg (Printf.sprintf "operand %s stored nowhere" info.op.W.name);
      let l0 = storing.(0) in
      let { gid; part } = part_ref_at info l0 in
      let reads = mac_streaming ctx lay info ~l0 in
      let per_word : U.access U.rate U.t =
        if info.is_output then U.(rate part.A.read_energy +: rate part.A.write_energy)
        else U.rate part.A.read_energy
      in
      energy.(gid) <- U.(energy.(gid) +: charge (count reads) per_word);
      words.(gid) <-
        U.(words.(gid) +: count (reads *. if info.is_output then 2.0 else 1.0));
      transfers :=
        {
          operand = info.op.W.name;
          from_level = l0;
          to_level = -1;
          reads;
          fills = 0.0;
          noc_deliveries = 0.0;
        }
        :: !transfers;
      for i = 0 to nst - 2 do
        let lc = storing.(i) and lp = storing.(i + 1) in
        let reads, fills = chain_pair ctx lay info ~lc ~lp in
        let rp = part_ref_at info lp in
        let rc = part_ref_at info lc in
        let dir = if info.is_output then 2.0 else 1.0 in
        let prod_per_word : U.access U.rate U.t =
          if info.is_output then U.(halve (rate rp.part.A.read_energy +: rate rp.part.A.write_energy))
          else U.rate rp.part.A.read_energy
        in
        let cons_per_word : U.access U.rate U.t =
          if info.is_output then U.(halve (rate rc.part.A.read_energy +: rate rc.part.A.write_energy))
          else U.rate rc.part.A.write_energy
        in
        energy.(rp.gid) <- U.(energy.(rp.gid) +: charge (count (dir *. reads)) prod_per_word);
        energy.(rc.gid) <- U.(energy.(rc.gid) +: charge (count (dir *. fills)) cons_per_word);
        words.(rp.gid) <- U.(words.(rp.gid) +: count (dir *. reads));
        words.(rc.gid) <- U.(words.(rc.gid) +: count (dir *. fills));
        for j = lc + 1 to lp do
          noc_energy :=
            U.(!noc_energy +: charge (count (dir *. fills)) (rate ctx.levels.(j).A.noc_hop_energy))
        done;
        transfers :=
          {
            operand = info.op.W.name;
            from_level = lp;
            to_level = lc;
            reads;
            fills;
            noc_deliveries = fills;
          }
          :: !transfers
      done)
    ctx.operands;
  let mac_energy =
    U.charge (U.count ctx.macs) (U.rate ctx.arch.A.mac_energy : U.op U.rate U.t)
  in
  let total_energy = U.to_float U.(sum energy +: !noc_energy +: mac_energy) in
  let total_spatial =
    let p = ref 1.0 in
    for l = 0 to ctx.nlevels - 1 do
      p := !p *. float_of_int (spatial_product lay l)
    done;
    !p
  in
  let compute_cycles = ctx.macs /. (total_spatial *. float_of_int ctx.arch.A.mac_throughput) in
  let inst_used = Array.make ctx.nlevels 1.0 in
  for l = ctx.nlevels - 2 downto 0 do
    inst_used.(l) <- inst_used.(l + 1) *. float_of_int (spatial_product lay (l + 1))
  done;
  let bw_cycles = ref 0.0 in
  for gid = 0 to ctx.nparts - 1 do
    let p = ctx.parts.(gid) in
    let l = ctx.part_level.(gid) in
    bw_cycles := Float.max !bw_cycles (U.to_float words.(gid) /. (p.A.bandwidth *. inst_used.(l)))
  done;
  let cycles = Float.max compute_cycles !bw_cycles in
  let breakdown = ref [] in
  let add name v =
    let rec go = function
      | [] -> [ (name, v) ]
      | (n, x) :: rest when n = name -> (n, x +. v) :: rest
      | kv :: rest -> kv :: go rest
    in
    breakdown := go !breakdown
  in
  for gid = 0 to ctx.nparts - 1 do
    if U.to_float energy.(gid) <> 0.0 then add ctx.part_names.(gid) (U.to_float energy.(gid))
  done;
  add "NoC" (U.to_float !noc_energy);
  add "MAC" (U.to_float mac_energy);
  {
    energy_pj = total_energy;
    cycles;
    edp = total_energy *. cycles;
    macs = ctx.macs;
    transfers = List.rev !transfers;
    breakdown = !breakdown;
    spatial_utilization = total_spatial /. float_of_int (A.total_fanout ctx.arch);
  }

let evaluate_ctx ctx m =
  if M.num_levels m <> ctx.nlevels then
    Error
      (Printf.sprintf "mapping has %d levels, architecture has %d" (M.num_levels m) ctx.nlevels)
  else begin
    let lay = convert ctx m in
    match validate_lay ctx lay with
    | Error _ as e -> e
    | Ok () -> Ok (evaluate_lay ctx lay)
  end

let evaluate ?binding w arch m = evaluate_ctx (context ?binding w arch) m
