module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module U = Units

type binding = string -> string

type transfer = {
  operand : string;
  from_level : int;
  to_level : int;
  reads : float;
  fills : float;
  noc_deliveries : float;
}

type cost = {
  energy_pj : float;
  cycles : float;
  edp : float;
  macs : float;
  transfers : transfer list;
  breakdown : (string * float) list;
  spatial_utilization : float;
}

type score = {
  mutable s_energy_pj : float;
  mutable s_cycles : float;
  mutable s_edp : float;
}

(* A fresh, caller-owned copy of a (possibly context-owned) score. *)
let copy_score s = { s_energy_pj = s.s_energy_pj; s_cycles = s.s_cycles; s_edp = s.s_edp }

type bounds = { mutable lb_energy_pj : float; mutable lb_cycles : float }

(* ------------------------------------------------------------------ *)
(* Context: everything derivable from (workload, arch, binding) alone   *)
(* ------------------------------------------------------------------ *)

type part_ref = {
  gid : int;  (** global partition id *)
  part : A.partition;
}

type op_info = {
  op : W.operand;
  is_output : bool;
  axes_d : int array array;  (** per tensor axis: dim ids of its terms *)
  axes_c : int array array;  (** per tensor axis: matching coefficients *)
  indexing : bool array;  (** per dim id *)
  sliding : bool array;  (** per dim id: inside a compound axis *)
  part_at : part_ref option array;  (** per level *)
  storing : int array;  (** storing level indices, ascending *)
}

(* Converted-mapping scratch: the matrices are allocated once per context
   and overwritten by [convert_into] for every candidate, so scoring a
   mapping allocates no layout state. [order] rows are resized only in the
   (never hit by [Mapping.make]-validated mappings) case of an order longer
   than the dim count; [olen] carries each row's live length. *)
type mlay = {
  t : int array array;  (** temporal factor [level].(dim) *)
  s : int array array;
  mutable order : int array array;  (** dim ids, outermost first *)
  olen : int array;  (** live length of [order.(level)] *)
  cum : int array array;  (** tile extent at/below level: [level].(dim) *)
  sprod : int array;  (** per level: product of spatial factors *)
}

(* Scalar accumulators of the evaluator. All fields are [float], so the
   record is flat and every store is an unboxed float write — the reason
   these live here instead of in local [ref]s, which box on each store. *)
type fscratch = {
  mutable f_rm : float;  (** chain reads multiplier *)
  mutable f_fm : float;  (** chain fills multiplier *)
  mutable f_outer : float;  (** chain outer trip count *)
  mutable f_reads : float;  (** chain result: words read from producer *)
  mutable f_fills : float;  (** chain result: words filled into consumer *)
  mutable f_denom : float;  (** MAC-streaming multicast denominator *)
  mutable f_noc : float;  (** NoC energy accumulator (pJ) *)
  mutable f_bw : float;  (** bandwidth-bound cycles *)
  mutable f_spatial : float;  (** total spatial unrolling product *)
  mutable f_energy : float;  (** eval_core result: total energy (pJ) *)
  mutable f_cycles : float;  (** eval_core result: cycles *)
  mutable f_mac : float;  (** eval_core result: MAC energy (pJ) *)
  mutable f_fp : float;  (** [footprint_into] result *)
  mutable f_esum : float;  (** eval_core's per-gid energy sum (pJ) *)
  mutable f_lb_energy : float;  (** [bounds_into]'s committed energy (pJ) *)
  mutable f_lb_words : float;  (** [bump_bw]'s argument: words through a boundary *)
  mutable f_lb_bw : float;  (** [bounds_into]'s committed bandwidth cycles *)
  mutable f_lb_lanes : float;  (** [bounds_into]'s lane upper bound *)
}

type ctx = {
  w : W.t;
  arch : A.t;
  binding : binding;
  ndims : int;
  dim_names : string array;  (** by dim id — positional fast path *)
  dim_of : (string, int) Hashtbl.t;
  bounds : int array;
  nlevels : int;
  levels : A.level array;
  macs : float;
  operands : op_info array;
  unstored : string option;  (** first operand stored at no level, if any *)
  part_names : string array;  (** by gid *)
  part_level : int array;  (** by gid *)
  parts : A.partition array;  (** by gid *)
  nparts : int;
  dram_floor_pj : float;
      (** mandatory top-boundary energy: every tensor word crosses the
          outermost boundary at least once, at no less than the cheapest
          top-level per-word energy *)
  dram_floor_cycles : float;  (** the same words through the top level's aggregate bandwidth *)
  (* per-context scratch; a context is single-in-flight: one evaluation
     uses it at a time (create one context per concurrent evaluator) *)
  lay : mlay;
  chain : int array;  (** chain_pair's served-extent row *)
  inst : float array;  (** instances per level for bandwidth scaling *)
  fs : fscratch;
  probe : Probe.t;  (** the capacity predicate's scratch *)
  fit : Probe.table;  (** the capacity predicate's per-level partitions *)
  sc_energy : U.energy U.Arr.arr;  (** per gid *)
  sc_words : U.access U.count U.Arr.arr;  (** per gid *)
  sc_score : score;  (** the context-owned score [score_ctx] returns *)
  sc_score_ok : (score, string) result;  (** preallocated [Ok sc_score] *)
  sc_bounds : bounds;  (** the context-owned record [prefix_lower_bounds_rows] returns *)
  mutable sc_violation : string option;  (** first validation violation *)
  mutable sc_stopped : bool;  (** chain_pair's reuse-scan state *)
}

let context ?(binding = Fun.id) w arch =
  let dims = W.dim_names w in
  let ndims = List.length dims in
  let dim_names = Array.of_list dims in
  let dim_of = Hashtbl.create 8 in
  List.iteri (fun i d -> Hashtbl.replace dim_of d i) dims;
  let bounds = Array.of_list (List.map (fun d -> W.bound w d) dims) in
  let levels = Array.of_list arch.A.levels in
  let nlevels = Array.length levels in
  (* global partition table: gids run level-major in declaration order;
     accumulate reversed with a running counter and reverse once *)
  let parts_rev = ref [] and names_rev = ref [] and levels_rev = ref [] in
  let next_gid = ref 0 in
  let gid_of = Hashtbl.create 8 in
  Array.iteri
    (fun li (lvl : A.level) ->
      List.iter
        (fun (p : A.partition) ->
          Hashtbl.replace gid_of (li, p.A.part_name) !next_gid;
          incr next_gid;
          parts_rev := p :: !parts_rev;
          names_rev := p.A.part_name :: !names_rev;
          levels_rev := li :: !levels_rev)
        lvl.A.partitions)
    levels;
  let nparts = !next_gid in
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
    (* the evaluator reads the axes as two parallel int arrays — no tuple
       dereference per term on the footprint path *)
    let axes_d = Array.map (Array.map fst) axes in
    let axes_c = Array.map (Array.map snd) axes in
    let role = binding op.W.name in
    (* the level index is the iteration index — no identity scan *)
    let part_at =
      Array.mapi
        (fun li (lvl : A.level) ->
          match A.partition_for lvl ~role with
          | Some p -> Some { gid = Hashtbl.find gid_of (li, p.A.part_name); part = p }
          | None -> None)
        levels
    in
    let storing =
      Array.of_list
        (List.concat
           (List.init nlevels (fun i -> if part_at.(i) <> None then [ i ] else [])))
    in
    { op; is_output = op.W.kind = `Output; axes_d; axes_c; indexing; sliding; part_at; storing }
  in
  let operands = Array.of_list (List.map op_info w.W.operands) in
  (* whether some operand is stored nowhere is a property of the context,
     not of any particular mapping — resolve it once *)
  let unstored =
    Array.fold_left
      (fun acc info ->
        if acc = None && Array.length info.storing = 0 then
          Some
            (Printf.sprintf "operand %s is stored at no level (no partition accepts its role)"
               info.op.W.name)
        else acc)
      None operands
  in
  let dram_floor_pj, dram_floor_cycles =
    match levels.(nlevels - 1).A.partitions with
    | [] -> (0.0, 0.0)
    | parts ->
      let min_e =
        List.fold_left
          (fun acc (p : A.partition) -> Float.min acc (Float.min p.A.read_energy p.A.write_energy))
          infinity parts
      in
      let sum_bw = List.fold_left (fun acc (p : A.partition) -> acc +. p.A.bandwidth) 0.0 parts in
      let words = List.fold_left (fun acc op -> acc +. W.operand_size w op) 0.0 w.W.operands in
      (words *. min_e, if sum_bw > 0.0 then words /. sum_bw else 0.0)
  in
  let sc_score = { s_energy_pj = 0.0; s_cycles = 0.0; s_edp = 0.0 } in
  let probe = Probe.create w in
  {
    w;
    arch;
    binding;
    ndims;
    dim_names;
    dim_of;
    bounds;
    nlevels;
    levels;
    macs = W.macs w;
    operands;
    unstored;
    part_names = Array.of_list (List.rev !names_rev);
    part_level = Array.of_list (List.rev !levels_rev);
    parts = Array.of_list (List.rev !parts_rev);
    nparts;
    dram_floor_pj;
    dram_floor_cycles;
    lay =
      {
        t = Array.make_matrix nlevels ndims 1;
        s = Array.make_matrix nlevels ndims 1;
        order = Array.make_matrix nlevels ndims 0;
        olen = Array.make nlevels 0;
        cum = Array.make_matrix nlevels ndims 1;
        sprod = Array.make nlevels 1;
      };
    chain = Array.make ndims 1;
    inst = Array.make nlevels 1.0;
    fs =
      {
        f_rm = 1.0;
        f_fm = 1.0;
        f_outer = 1.0;
        f_reads = 0.0;
        f_fills = 0.0;
        f_denom = 1.0;
        f_noc = 0.0;
        f_bw = 0.0;
        f_spatial = 1.0;
        f_energy = 0.0;
        f_cycles = 0.0;
        f_mac = 0.0;
        f_fp = 1.0;
        f_esum = 0.0;
        f_lb_energy = 0.0;
        f_lb_words = 0.0;
        f_lb_bw = 0.0;
        f_lb_lanes = 1.0;
      };
    probe;
    fit = Probe.fit_table probe w arch ~binding;
    sc_energy = U.Arr.make nparts;
    sc_words = U.Arr.make nparts;
    sc_score;
    sc_score_ok = Ok sc_score;
    sc_bounds = { lb_energy_pj = 0.0; lb_cycles = 0.0 };
    sc_violation = None;
    sc_stopped = false;
  }

let partitions ctx =
  Array.init ctx.nparts (fun gid -> (ctx.part_names.(gid), ctx.part_level.(gid)))

(* ------------------------------------------------------------------ *)
(* Mapping conversion                                                   *)
(* ------------------------------------------------------------------ *)

(* Mappings built by the search carry their dim lists in workload order, so
   position [i] almost always names dim [i]. The positional probe tries
   physical equality first (search-built mappings share the workload's dim
   strings), then a structural compare, then the hash table — a pure fast
   path, never the only mechanism, unlike the pre-PR level scan. *)
let[@inline] dim_index ctx i d =
  if
    i < ctx.ndims
    &&
    let n = Array.unsafe_get ctx.dim_names i in
    d == n || String.equal d n
  then i
  else Hashtbl.find ctx.dim_of d

(* Closure-free list walks for [convert_into]: [List.iteri] would allocate
   a closure per level per list on this path. *)
let rec fill_factors ctx row i = function
  | [] -> ()
  | (d, f) :: rest ->
    row.(dim_index ctx i d) <- f;
    fill_factors ctx row (i + 1) rest

let rec fill_order ctx row i = function
  | [] -> i
  | d :: rest ->
    Array.unsafe_set row i (dim_index ctx i d);
    fill_order ctx row (i + 1) rest

(* Toplevel, not a local [let rec]: a local recursive loop closing over the
   row would allocate its closure on every call (classic ocamlopt does no
   lambda-lifting); a toplevel function with the row as a parameter costs
   nothing, and its int accumulator stays in a register across the
   self-tail-call. *)
let rec sprod_loop srow d n acc =
  if d >= n then acc else sprod_loop srow (d + 1) n (acc * Array.unsafe_get srow d)

(* Level [l]'s cumulative tile extents, from its factor rows and level
   [l - 1]'s extents. *)
let cum_level ctx lay l =
  let crow = lay.cum.(l) and trow = lay.t.(l) and srow = lay.s.(l) in
  if l = 0 then
    for d = 0 to ctx.ndims - 1 do
      Array.unsafe_set crow d (Array.unsafe_get trow d * Array.unsafe_get srow d)
    done
  else begin
    let prev = lay.cum.(l - 1) in
    for d = 0 to ctx.ndims - 1 do
      Array.unsafe_set crow d
        (Array.unsafe_get prev d * Array.unsafe_get trow d * Array.unsafe_get srow d)
    done
  end

(* Is level [l]'s cumulative tile extent read by validation or a score?
   Validation compares footprints only at bounded levels, and traffic is
   counted from consumer levels, which are below the top; so the extent of
   an unbounded top level is left stale. *)
let[@inline] cum_read ctx l = l < ctx.nlevels - 1 || not ctx.levels.(l).A.unbounded

(* Per-level spatial products and the cumulative tile extents
   ({!cum_read}) of the factor rows already in the layout scratch. *)
let finish_lay ctx lay =
  for l = 0 to ctx.nlevels - 1 do
    lay.sprod.(l) <- sprod_loop lay.s.(l) 0 ctx.ndims 1;
    if cum_read ctx l then cum_level ctx lay l
  done;
  lay

(* The order scratch row of [l], grown to hold [olen] entries. *)
let order_row lay l olen =
  (* sunstone-lint: allow SA070 order row grows to the largest olen seen, then steady state *)
  if olen > Array.length lay.order.(l) then lay.order.(l) <- Array.make olen 0;
  lay.olen.(l) <- olen;
  lay.order.(l)

(* Overwrite the context's layout scratch with mapping [m]. *)
let convert_into ctx (m : M.t) =
  let lay = ctx.lay in
  for l = 0 to ctx.nlevels - 1 do
    let lm = m.M.levels.(l) in
    let trow = lay.t.(l) and srow = lay.s.(l) in
    (* manual reset: [Array.fill] is a C call, twice per level per candidate *)
    for d = 0 to ctx.ndims - 1 do
      Array.unsafe_set trow d 1;
      Array.unsafe_set srow d 1
    done;
    fill_factors ctx trow 0 lm.M.temporal;
    fill_factors ctx srow 0 lm.M.spatial;
    ignore (fill_order ctx (order_row lay l (List.length lm.M.order)) 0 lm.M.order)
  done;
  finish_lay ctx lay

(* Overwrite the context's layout scratch with packed rows: the same
   matrices [convert_into] builds from the named levels, copied row by row.
   The caller has checked the level count. *)
let load_rows ctx (r : M.Rows.t) =
  let lay = ctx.lay in
  for l = 0 to ctx.nlevels - 1 do
    let trow = lay.t.(l) and srow = lay.s.(l) in
    let tr = r.M.Rows.temporal.(l) and sr = r.M.Rows.spatial.(l) and o = r.M.Rows.order.(l) in
    for d = 0 to ctx.ndims - 1 do
      Array.unsafe_set trow d tr.(d);
      Array.unsafe_set srow d sr.(d)
    done;
    let orow = order_row lay l (Array.length o) in
    for i = 0 to Array.length o - 1 do
      let d = Array.unsafe_get o i in
      (* the evaluator indexes per-dim tables unchecked *)
      if d < 0 || d >= ctx.ndims then
        (* sunstone-lint: allow SA070 defensive failure, unreachable for checked rows *)
        invalid_arg "Model: order entry is not a dim position";
      Array.unsafe_set orow i d
    done
  done;
  finish_lay ctx lay

(* Toplevel tail recursion with an int accumulator: the self-call compiles
   to a jump with [acc] in a register. (A float accumulator would NOT be
   free here — classic ocamlopt boxes float parameters at every recursive
   call — which is why [footprint_into] below accumulates its float product
   in a mutable scratch field instead.) *)
let rec axis_extent_loop extents dims coeffs i n acc =
  if i >= n then acc
  else
    axis_extent_loop extents dims coeffs (i + 1) n
      (acc + Array.unsafe_get coeffs i * (Array.unsafe_get extents (Array.unsafe_get dims i) - 1))

let axis_extent extents dims coeffs = axis_extent_loop extents dims coeffs 0 (Array.length dims) 1

(* Hot-path footprint: the float product accumulates in [fs.f_fp], an
   unboxed store into the flat scratch record, so the whole walk allocates
   nothing — no local closure, no boxed float return. Multiplication order
   is axis order, exactly the old left fold. *)
let footprint_into ctx (info : op_info) extents =
  let fs = ctx.fs in
  let ad = info.axes_d and ac = info.axes_c in
  fs.f_fp <- 1.0;
  for i = 0 to Array.length ad - 1 do
    fs.f_fp <-
      fs.f_fp
      *. float_of_int (axis_extent extents (Array.unsafe_get ad i) (Array.unsafe_get ac i))
  done

let[@inline] spatial_product lay l = lay.sprod.(l)

(* [part_at.(l)] is [Some _] exactly at the levels listed in [storing];
   callers only index with members of [storing], so [None] here means the
   context tables are inconsistent — fail with enough context to find it. *)
let part_ref_at (info : op_info) l =
  match info.part_at.(l) with
  | Some r -> r
  | None ->
    (* sunstone-lint: allow SA070 defensive failure, unreachable for validated mappings *)
    invalid_arg (Printf.sprintf "Model: operand %s has no partition at level %d" info.op.W.name l)

(* ------------------------------------------------------------------ *)
(* Validation                                                           *)
(* ------------------------------------------------------------------ *)

let validate_lay ctx lay =
  ctx.sc_violation <- ctx.unstored;
  for l = 0 to ctx.nlevels - 1 do
    if ctx.sc_violation = None then
      match A.unroll_violation ctx.levels.(l) (spatial_product lay l) with
      | None -> ()
      | violation -> ctx.sc_violation <- violation
  done;
  for l = 0 to ctx.nlevels - 1 do
    if ctx.sc_violation = None then begin
      let ext = lay.cum.(l) in
      let i = Probe.first_overflow ctx.probe ctx.fit ~level:l ext in
      if i >= 0 then begin
        let pf = ctx.fit.(l).Probe.parts.(i) in
        ctx.sc_violation <-
          Some
            (* sunstone-lint: allow SA070 rejected-candidate path only *)
            (Printf.sprintf "partition %s at %s: footprint %.0f exceeds capacity %d"
               pf.Probe.part.A.part_name ctx.levels.(l).A.level_name
               (Probe.occupancy ctx.probe pf ext)
               pf.Probe.part.A.capacity_words)
      end
    end
  done;
  match ctx.sc_violation with None -> Ok () | Some msg -> Error msg

let level_count_violation (a : A.t) levels =
  let n = A.num_levels a in
  if levels = n then None
  else
    Some
      (* sunstone-lint: allow SA070 rejected-candidate path only *)
      (Printf.sprintf "mapping has %d levels, architecture %s has %d" levels a.A.arch_name n)

(* ------------------------------------------------------------------ *)
(* Access counting                                                      *)
(* ------------------------------------------------------------------ *)

(* Traffic of [info] between producer storing level [lp] and consumer
   storing level [lc]: refills are the temporal loops strictly above [lc]
   scanned innermost-first with full/partial reuse absorption; spatial
   factors above [lc] either enlarge the served footprint (indexing dims)
   or broadcast/replicate (non-indexing). Results land in [fs.f_reads] and
   [fs.f_fills]. *)
let chain_pair ctx lay (info : op_info) ~lc ~lp =
  let fs = ctx.fs in
  let top = ctx.nlevels - 1 in
  let cum = ctx.chain in
  let src = lay.cum.(lc) in
  for d = 0 to ctx.ndims - 1 do
    Array.unsafe_set cum d (Array.unsafe_get src d)
  done;
  fs.f_rm <- 1.0;
  fs.f_fm <- 1.0;
  for j = lc + 1 to top do
    let multicast = ctx.levels.(j).A.multicast in
    let srow = lay.s.(j) in
    for d = 0 to ctx.ndims - 1 do
      let f = Array.unsafe_get srow d in
      if f > 1 then
        if Array.unsafe_get info.indexing d then
          Array.unsafe_set cum d (Array.unsafe_get cum d * f)
        else if j <= lp then begin
          fs.f_fm <- fs.f_fm *. float_of_int f;
          if not multicast then fs.f_rm <- fs.f_rm *. float_of_int f
        end
        else begin
          fs.f_rm <- fs.f_rm *. float_of_int f;
          fs.f_fm <- fs.f_fm *. float_of_int f
        end
    done
  done;
  (* temporal reuse scan, innermost loop first *)
  ctx.sc_stopped <- false;
  fs.f_outer <- 1.0;
  for j = lc + 1 to top do
    let ord = lay.order.(j) and trow = lay.t.(j) in
    for i = lay.olen.(j) - 1 downto 0 do
      let d = Array.unsafe_get ord i in
      let b = trow.(d) in
      if b > 1 then
        if ctx.sc_stopped then fs.f_outer <- fs.f_outer *. float_of_int b
        else if not (Array.unsafe_get info.indexing d) then
          () (* fully reused across this loop *)
        else if Array.unsafe_get info.sliding d then begin
          (* sliding-window partial reuse: fetch the union of the windows *)
          cum.(d) <- cum.(d) * b;
          ctx.sc_stopped <- true
        end
        else begin
          ctx.sc_stopped <- true;
          fs.f_outer <- fs.f_outer *. float_of_int b
        end
    done
  done;
  footprint_into ctx info cum;
  fs.f_reads <- fs.f_outer *. fs.f_fp *. fs.f_rm;
  fs.f_fills <- fs.f_outer *. fs.f_fp *. fs.f_fm

(* Per-MAC streaming denominator from the nearest storing level [l0]:
   unrolled non-indexing dims below [l0] share one read across lanes when
   the interconnect multicasts. Lands in [fs.f_denom]. *)
let mac_streaming ctx lay (info : op_info) ~l0 =
  let fs = ctx.fs in
  fs.f_denom <- 1.0;
  for j = 0 to l0 do
    if ctx.levels.(j).A.multicast then begin
      let srow = lay.s.(j) in
      for d = 0 to ctx.ndims - 1 do
        if srow.(d) > 1 && not info.indexing.(d) then
          fs.f_denom <- fs.f_denom *. float_of_int srow.(d)
      done
    end
  done

(* ------------------------------------------------------------------ *)
(* Energy and latency assembly                                          *)
(* ------------------------------------------------------------------ *)

(* The evaluator core. Float operations run in exactly the order of the
   pre-rewrite evaluator ([Model_ref], pinned by the golden bit-identity
   suite), so energies, cycles and EDP are bit-identical. No transfer
   records are built here — [transfers_of] replays the chain walk off the
   hot path — so the core allocates nothing: per-gid energies/words and
   every scalar accumulator live in the context's scratch. *)
let eval_core ctx lay =
  let fs = ctx.fs in
  let energy = ctx.sc_energy in
  let words = ctx.sc_words in
  U.Arr.fill energy;
  U.Arr.fill words;
  fs.f_noc <- 0.0;
  for oi = 0 to Array.length ctx.operands - 1 do
    let info = ctx.operands.(oi) in
    let storing = info.storing in
    let nst = Array.length storing in
    if nst = 0 then
      (* sunstone-lint: allow SA070 defensive failure, [ctx.unstored] rejects this first *)
      invalid_arg (Printf.sprintf "operand %s stored nowhere" info.op.W.name);
    (* MAC streaming from the innermost storing level *)
    let l0 = storing.(0) in
    let { gid; part } = part_ref_at info l0 in
    mac_streaming ctx lay info ~l0;
    let reads = ctx.macs /. fs.f_denom in
    (* the per-word rate is selected by branching the whole statement: a
       let-bound [if] join of two computed floats is boxed, the branched
       statements are not *)
    if info.is_output then
      U.Arr.set energy gid
        U.(Arr.get energy gid +: charge (count reads) (rate part.A.read_energy +: rate part.A.write_energy))
    else
      U.Arr.set energy gid U.(Arr.get energy gid +: charge (count reads) (rate part.A.read_energy));
    U.Arr.set words gid
      U.(Arr.get words gid +: count (reads *. if info.is_output then 2.0 else 1.0));
    (* chain transfers between consecutive storing levels *)
    for i = 0 to nst - 2 do
      let lc = storing.(i) and lp = storing.(i + 1) in
      chain_pair ctx lay info ~lc ~lp;
      let reads = fs.f_reads and fills = fs.f_fills in
      let rp = part_ref_at info lp in
      let rc = part_ref_at info lc in
      let dir = if info.is_output then 2.0 else 1.0 in
      (* [U.halve] spelled out as [/. 2.0]: the cross-module call would box
         its argument and result; [rate] is an identity primitive, so
         [rate a +: rate b] = [rate (a +. b)] and the halving is the exact
         same power-of-two division, bit for bit. As in the streaming charge
         above, the output/input rate choice branches the whole statement
         rather than let-binding a boxed [if] join. *)
      if info.is_output then
        U.Arr.set energy rp.gid
          U.(Arr.get energy rp.gid
             +: charge (count (dir *. reads))
                  (rate ((rp.part.A.read_energy +. rp.part.A.write_energy) /. 2.0)))
      else
        U.Arr.set energy rp.gid
          U.(Arr.get energy rp.gid +: charge (count (dir *. reads)) (rate rp.part.A.read_energy));
      if info.is_output then
        U.Arr.set energy rc.gid
          U.(Arr.get energy rc.gid
             +: charge (count (dir *. fills))
                  (rate ((rc.part.A.read_energy +. rc.part.A.write_energy) /. 2.0)))
      else
        U.Arr.set energy rc.gid
          U.(Arr.get energy rc.gid +: charge (count (dir *. fills)) (rate rc.part.A.write_energy));
      U.Arr.set words rp.gid U.(Arr.get words rp.gid +: count (dir *. reads));
      U.Arr.set words rc.gid U.(Arr.get words rc.gid +: count (dir *. fills));
      for j = lc + 1 to lp do
        fs.f_noc <-
          U.to_float
            U.(pj fs.f_noc +: charge (count (dir *. fills)) (rate ctx.levels.(j).A.noc_hop_energy))
      done
    done
  done;
  let mac_energy =
    U.charge (U.count ctx.macs) (U.rate ctx.arch.A.mac_energy : U.op U.rate U.t)
  in
  (* [U.Arr.sum] is a cross-module loop returning a boxed float; fold the
     per-gid energies here instead, in the same left-to-right order, into an
     unboxed scratch field *)
  fs.f_esum <- 0.0;
  for gid = 0 to U.Arr.length energy - 1 do
    fs.f_esum <- fs.f_esum +. U.to_float (U.Arr.get energy gid)
  done;
  let total_energy = U.to_float U.(pj fs.f_esum +: pj fs.f_noc +: mac_energy) in
  (* latency *)
  fs.f_spatial <- 1.0;
  for l = 0 to ctx.nlevels - 1 do
    fs.f_spatial <- fs.f_spatial *. float_of_int (spatial_product lay l)
  done;
  let compute_cycles = ctx.macs /. (fs.f_spatial *. float_of_int ctx.arch.A.mac_throughput) in
  let inst_used = ctx.inst in
  for l = 0 to ctx.nlevels - 1 do
    Array.unsafe_set inst_used l 1.0
  done;
  for l = ctx.nlevels - 2 downto 0 do
    inst_used.(l) <- inst_used.(l + 1) *. float_of_int (spatial_product lay (l + 1))
  done;
  fs.f_bw <- 0.0;
  for gid = 0 to ctx.nparts - 1 do
    let p = ctx.parts.(gid) in
    let l = ctx.part_level.(gid) in
    (* [Float.max] spelled out: the call boxes both arguments; both values
       are non-NaN and non-negative here, so the compare is the same max *)
    let bw = U.to_float (U.Arr.get words gid) /. (p.A.bandwidth *. inst_used.(l)) in
    if bw > fs.f_bw then fs.f_bw <- bw
  done;
  fs.f_energy <- total_energy;
  fs.f_cycles <- (if compute_cycles >= fs.f_bw then compute_cycles else fs.f_bw);
  fs.f_mac <- U.to_float mac_energy

(* Write the score triple into the context-owned record: three unboxed
   float stores, no allocation. *)
let score_into ctx lay =
  eval_core ctx lay;
  let fs = ctx.fs in
  let s = ctx.sc_score in
  s.s_energy_pj <- fs.f_energy;
  s.s_cycles <- fs.f_cycles;
  s.s_edp <- fs.f_energy *. fs.f_cycles

(* Replay the chain walk of [eval_core] to build the transfer records the
   core no longer assembles. Reads/fills recompute bit-identically —
   [mac_streaming]/[chain_pair] are deterministic in [lay] — and the list
   is consed in the core's old order then reversed, so [evaluate]'s
   transfer order is unchanged. Clobbers only the chain scratch
   ([f_denom]/[f_reads]/[f_fills] and friends), never the [f_energy]
   family, so it may run after [eval_core] for the same layout. *)
(* sunstone-cold *)
let transfers_of ctx lay =
  let fs = ctx.fs in
  let acc = ref [] in
  for oi = 0 to Array.length ctx.operands - 1 do
    let info = ctx.operands.(oi) in
    let storing = info.storing in
    let nst = Array.length storing in
    let l0 = storing.(0) in
    mac_streaming ctx lay info ~l0;
    acc :=
      {
        operand = info.op.W.name;
        from_level = l0;
        to_level = -1;
        reads = ctx.macs /. fs.f_denom;
        fills = 0.0;
        noc_deliveries = 0.0;
      }
      :: !acc;
    for i = 0 to nst - 2 do
      let lc = storing.(i) and lp = storing.(i + 1) in
      chain_pair ctx lay info ~lc ~lp;
      acc :=
        {
          operand = info.op.W.name;
          from_level = lp;
          to_level = lc;
          reads = fs.f_reads;
          fills = fs.f_fills;
          noc_deliveries = fs.f_fills;
        }
        :: !acc
    done
  done;
  List.rev !acc

(* sunstone-cold *)
let evaluate_lay ctx lay =
  eval_core ctx lay;
  let fs = ctx.fs in
  (* breakdown by partition name *)
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
    let e = U.to_float (U.Arr.get ctx.sc_energy gid) in
    if e <> 0.0 then add ctx.part_names.(gid) e
  done;
  add "NoC" fs.f_noc;
  add "MAC" fs.f_mac;
  let energy_pj = fs.f_energy in
  let cycles = fs.f_cycles in
  let spatial_utilization = fs.f_spatial /. float_of_int (A.total_fanout ctx.arch) in
  {
    energy_pj;
    cycles;
    edp = energy_pj *. cycles;
    macs = ctx.macs;
    transfers = transfers_of ctx lay;
    breakdown = !breakdown;
    spatial_utilization;
  }

(* Pre-registered telemetry handles: an [incr] is one flag load when
   telemetry is disabled, so the per-candidate evaluation path stays inside
   the bench's overhead budget. Module-global handles are fork-safe here by
   protocol — each forked worker owns a private registry copy that the
   parent merges on frame receipt (DESIGN.md §3.4). *)
let tel_evaluations = Sun_telemetry.Metrics.counter "model.evaluations"

let tel_rejected = Sun_telemetry.Metrics.counter "model.evaluate_rejected"

(* Shared evaluate/score front end: [true] when the layout loaded into
   [ctx.lay] validated; on [false] the violation is readable through
   [violation_message]. A boolean instead of [(mlay, string) result]
   because the [Ok lay] wrapper was the last per-call allocation of the
   accepted score path. *)
let level_count_ok ctx nlevels =
  match level_count_violation ctx.arch nlevels with
  | None -> true
  | violation ->
    ctx.sc_violation <- violation;
    false

let lay_ok ctx lay = match validate_lay ctx lay with Ok () -> true | Error _ -> false

let prepare ctx m = level_count_ok ctx (M.num_levels m) && lay_ok ctx (convert_into ctx m)

let prepare_rows ctx (r : M.Rows.t) =
  level_count_ok ctx (Array.length r.M.Rows.temporal) && lay_ok ctx (load_rows ctx r)

let violation_message ctx =
  match ctx.sc_violation with Some msg -> msg | None -> "mapping is valid"

let validate_ctx ctx m = if prepare ctx m then Ok () else Error (violation_message ctx)

(* The accepted path writes the context-owned score and returns the
   preallocated [Ok]; telemetry counts each call once. *)
let score_prepared ctx ok =
  if ok then begin
    Sun_telemetry.Metrics.incr tel_evaluations;
    score_into ctx ctx.lay;
    ctx.sc_score_ok
  end
  else begin
    Sun_telemetry.Metrics.incr tel_rejected;
    Error (violation_message ctx)
  end

(* sunstone-hot *)
let evaluate_ctx ctx m =
  if prepare ctx m then begin
    Sun_telemetry.Metrics.incr tel_evaluations;
    Ok (evaluate_lay ctx ctx.lay)
  end
  else begin
    Sun_telemetry.Metrics.incr tel_rejected;
    Error (violation_message ctx)
  end

(* sunstone-hot *)
let score_ctx ctx m = score_prepared ctx (prepare ctx m)

(* sunstone-hot *)
let score_rows ctx r = score_prepared ctx (prepare_rows ctx r)

(* The loaded layout with its top temporal row replaced by [top]: the
   spatial products are unchanged, and of the cumulative extents only the
   top level's moves, which is read only when that level is bounded
   ({!cum_read}). The same matrices [load_rows] builds from the replaced
   rows. *)
let set_top ctx top =
  let lay = ctx.lay in
  let l = ctx.nlevels - 1 in
  let trow = lay.t.(l) in
  for d = 0 to ctx.ndims - 1 do
    Array.unsafe_set trow d top.(d)
  done;
  if cum_read ctx l then cum_level ctx lay l;
  lay

(* sunstone-hot *)
let score_with_top ctx top = score_prepared ctx (lay_ok ctx (set_top ctx top))

(* The bandwidth side of the bound: the largest committed boundary's
   traffic over its bandwidth times the instance bound, in [fs.f_lb_bw].
   The words arrive in [fs.f_lb_words]: a float argument would be boxed at
   every call. *)
let bump_bw ctx (part : A.partition) l =
  let fs = ctx.fs in
  if part.A.bandwidth > 0.0 then begin
    let c = fs.f_lb_words /. (part.A.bandwidth *. ctx.inst.(l)) in
    if c > fs.f_lb_bw then fs.f_lb_bw <- c
  end

(* Why each term is admissible. The committed streaming reads are exact:
   the MAC count and the committed unrolls fix them. Traffic at the
   boundary {e at} [fixed_levels] is computed with the uncommitted upper
   temporal loops still at 1; adding an outer iteration can only re-stream
   a tile again (more traffic) or be absorbed by reuse (equal traffic),
   never remove a fill. The top-boundary floor is added only while that
   boundary is uncommitted, so its accesses are disjoint from the
   committed ones. On the cycles side, no completion runs on more lanes
   than the committed unrolls times the fanout still unassigned above.

   The bound of [lay] lands in [ctx.sc_bounds]. Every accumulator is a
   scratch field and every loop a [for], so the walk allocates nothing;
   the float operations are those of the closure-and-[ref] form it
   replaced, in the same order. *)
(* sunstone-hot *)
let bounds_into ctx lay ~fixed_levels =
  let fs = ctx.fs in
  fs.f_lb_energy <- U.to_float (U.charge (U.count ctx.macs) (U.rate ctx.arch.A.mac_energy));
  (* Instance-count upper bounds for the bandwidth side: spatial factors
     at or below [fixed_levels] are committed, every level above can
     unroll at most its fanout. Reuses the context's [inst] scratch
     ([eval_core] reinitializes it each call). *)
  let inst = ctx.inst in
  inst.(ctx.nlevels - 1) <- 1.0;
  for l = ctx.nlevels - 2 downto 0 do
    let above =
      if l + 1 <= fixed_levels then spatial_product lay (l + 1) else ctx.levels.(l + 1).A.fanout
    in
    inst.(l) <- inst.(l + 1) *. float_of_int above
  done;
  fs.f_lb_bw <- 0.0;
  for oi = 0 to Array.length ctx.operands - 1 do
    let info = ctx.operands.(oi) in
    let storing = info.storing in
    let nst = Array.length storing in
    if nst > 0 && storing.(0) <= fixed_levels then begin
      let l0 = storing.(0) in
      let { part; _ } = part_ref_at info l0 in
      mac_streaming ctx lay info ~l0;
      let reads = ctx.macs /. fs.f_denom in
      (* the per-word rate branches the whole statement: a let-bound [if]
         join of two computed floats is boxed *)
      if info.is_output then
        fs.f_lb_energy <-
          U.to_float
            U.(pj fs.f_lb_energy
               +: charge (count reads) (rate part.A.read_energy +: rate part.A.write_energy))
      else
        fs.f_lb_energy <-
          U.to_float U.(pj fs.f_lb_energy +: charge (count reads) (rate part.A.read_energy));
      fs.f_lb_words <- reads;
      bump_bw ctx part l0
    end;
    for i = 0 to nst - 2 do
      let lc = storing.(i) and lp = storing.(i + 1) in
      if lp <= fixed_levels then begin
        chain_pair ctx lay info ~lc ~lp;
        let reads = fs.f_reads and fills = fs.f_fills in
        let rp = part_ref_at info lp in
        let rc = part_ref_at info lc in
        let dir = if info.is_output then 2.0 else 1.0 in
        fs.f_lb_energy <-
          U.to_float
            U.(pj fs.f_lb_energy
               +: charge (count (dir *. reads)) (rate rp.part.A.read_energy)
               +: charge (count (dir *. fills)) (rate rc.part.A.write_energy));
        fs.f_lb_words <- dir *. reads;
        bump_bw ctx rp.part lp;
        fs.f_lb_words <- dir *. fills;
        bump_bw ctx rc.part lc
      end
    done
  done;
  fs.f_lb_lanes <- 1.0;
  for l = 0 to ctx.nlevels - 1 do
    let f = if l <= fixed_levels then spatial_product lay l else ctx.levels.(l).A.fanout in
    fs.f_lb_lanes <- fs.f_lb_lanes *. float_of_int f
  done;
  let compute_cycles = ctx.macs /. (fs.f_lb_lanes *. float_of_int ctx.arch.A.mac_throughput) in
  let b = ctx.sc_bounds in
  (* the top-boundary floor joins while that boundary is uncommitted; the
     maxima are [Float.max] spelled out (the call boxes its arguments),
     exact here because every operand is finite and positive or +0 *)
  if fixed_levels < ctx.nlevels - 1 then begin
    b.lb_energy_pj <- fs.f_lb_energy +. ctx.dram_floor_pj;
    let bw = if fs.f_lb_bw >= ctx.dram_floor_cycles then fs.f_lb_bw else ctx.dram_floor_cycles in
    b.lb_cycles <- (if compute_cycles >= bw then compute_cycles else bw)
  end
  else begin
    b.lb_energy_pj <- fs.f_lb_energy;
    b.lb_cycles <- (if compute_cycles >= fs.f_lb_bw then compute_cycles else fs.f_lb_bw)
  end

let prefix_lower_bounds ctx ~fixed_levels m =
  bounds_into ctx (convert_into ctx m) ~fixed_levels;
  (ctx.sc_bounds.lb_energy_pj, ctx.sc_bounds.lb_cycles)

(* sunstone-hot *)
let prefix_lower_bounds_rows ctx ~fixed_levels r =
  bounds_into ctx (load_rows ctx r) ~fixed_levels;
  ctx.sc_bounds

(* ------------------------------------------------------------------ *)
(* Convenience wrappers                                                 *)
(* ------------------------------------------------------------------ *)

let validate ?binding w arch m = validate_ctx (context ?binding w arch) m

let evaluate ?binding w arch m = evaluate_ctx (context ?binding w arch) m

let evaluate_exn ?binding w arch m =
  match evaluate ?binding w arch m with
  | Ok c -> c
  | Error msg -> invalid_arg ("Model.evaluate_exn: " ^ msg)

let pp_cost ppf c =
  let pp_item ppf (name, pj) = Format.fprintf ppf "%s: %.3e pJ" name pj in
  Format.fprintf ppf
    "@[<v>energy %.4e pJ, cycles %.4e, EDP %.4e, util %.2f%%@,%a@]" c.energy_pj c.cycles c.edp
    (c.spatial_utilization *. 100.0)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_item)
    c.breakdown
