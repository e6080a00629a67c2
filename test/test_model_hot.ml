(* Golden bit-identity and hot-path coverage for the allocation-free
   evaluator: the rewritten [Model] must return byte-identical cost records
   to the frozen pre-rewrite evaluator ([Model_ref]) on every registry
   workload under both the Eyeriss-like and Simba presets; footprint
   probes must equal direct recomputation; the batch entry
   points must equal the scalar ones; and the gid assignment order of
   [Model.context] is pinned (serialized caches depend on it). *)

module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module P = Sun_arch.Presets
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Ref = Model_ref
module Probe = Sun_cost.Probe
module Opt = Sun_core.Optimizer

let presets = [ ("conventional", P.conventional); ("simba", P.simba_like) ]

let bits = Int64.bits_of_float

let check_bits what a b = Alcotest.(check int64) what (bits a) (bits b)

let find_workload name =
  match Sun_serve.Registry.find_workload name with
  | Ok w -> w
  | Error msg -> Alcotest.fail msg

(* A non-streaming companion to [M.single_level]: peel the smallest prime
   factor of every dim down to level 0, leaving the rest at the top. *)
let smallest_factor n =
  if n <= 1 then 1
  else begin
    let rec go p = if p * p > n then n else if n mod p = 0 then p else go (p + 1) in
    go 2
  end

let split_mapping w ~num_levels =
  let dims = W.dim_names w in
  let ones = List.map (fun d -> (d, 1)) dims in
  let lm temporal = { M.temporal; order = dims; spatial = ones } in
  let bottom = lm (List.map (fun d -> (d, smallest_factor (W.bound w d))) dims) in
  let top = lm (List.map (fun d -> (d, W.bound w d / smallest_factor (W.bound w d))) dims) in
  let mids = List.init (num_levels - 2) (fun _ -> lm ones) in
  M.make w ((bottom :: mids) @ [ top ])

(* The same split with the peeled factors unrolled spatially at level 1
   and every order reversed, so every dim's spatial factor and order
   position matters. *)
let unrolled_mapping w ~num_levels =
  let dims = W.dim_names w in
  let ones = List.map (fun d -> (d, 1)) dims in
  let lm ?(spatial = ones) temporal = { M.temporal; order = List.rev dims; spatial } in
  let peel = List.map (fun d -> (d, smallest_factor (W.bound w d))) dims in
  let top = lm (List.map (fun d -> (d, W.bound w d / smallest_factor (W.bound w d))) dims) in
  M.make w
    ((lm ones :: lm ~spatial:peel ones :: List.init (num_levels - 3) (fun _ -> lm ones)) @ [ top ])

(* [Ref]'s cost/transfer types are re-exported equalities of [Model]'s, so
   one comparator covers both. *)
let check_cost what (c : Model.cost) (c' : Model.cost) =
  check_bits (what ^ ": energy") c'.Model.energy_pj c.Model.energy_pj;
  check_bits (what ^ ": cycles") c'.Model.cycles c.Model.cycles;
  check_bits (what ^ ": edp") c'.Model.edp c.Model.edp;
  check_bits (what ^ ": macs") c'.Model.macs c.Model.macs;
  check_bits (what ^ ": utilization") c'.Model.spatial_utilization c.Model.spatial_utilization;
  Alcotest.(check int)
    (what ^ ": transfer count") (List.length c'.Model.transfers) (List.length c.Model.transfers);
  List.iter2
    (fun (t : Model.transfer) (t' : Model.transfer) ->
      Alcotest.(check string) (what ^ ": transfer operand") t'.Model.operand t.Model.operand;
      Alcotest.(check int) (what ^ ": transfer from") t'.Model.from_level t.Model.from_level;
      Alcotest.(check int) (what ^ ": transfer to") t'.Model.to_level t.Model.to_level;
      check_bits (what ^ ": transfer reads") t'.Model.reads t.Model.reads;
      check_bits (what ^ ": transfer fills") t'.Model.fills t.Model.fills;
      check_bits (what ^ ": transfer noc") t'.Model.noc_deliveries t.Model.noc_deliveries)
    c.Model.transfers c'.Model.transfers;
  Alcotest.(check (list string))
    (what ^ ": breakdown names")
    (List.map fst c'.Model.breakdown)
    (List.map fst c.Model.breakdown);
  List.iter2
    (fun (n, v) (_, v') -> check_bits (what ^ ": breakdown " ^ n) v' v)
    c.Model.breakdown c'.Model.breakdown

let compare_on what ctx rctx m =
  match (Model.evaluate_ctx ctx m, Ref.evaluate_ctx rctx m) with
  | Ok c, Ok c' ->
    check_cost what c c';
    (* the score triple must be the same floats as the full evaluation *)
    (match Model.score_ctx ctx m with
    | Ok s ->
      check_bits (what ^ ": score energy") c.Model.energy_pj s.Model.s_energy_pj;
      check_bits (what ^ ": score cycles") c.Model.cycles s.Model.s_cycles;
      check_bits (what ^ ": score edp") c.Model.edp s.Model.s_edp
    | Error msg -> Alcotest.failf "%s: score_ctx rejected an evaluable mapping: %s" what msg)
  | Error e, Error e' -> Alcotest.(check string) (what ^ ": error") e' e
  | Ok _, Error e -> Alcotest.failf "%s: rewritten accepts, reference rejects (%s)" what e
  | Error e, Ok _ -> Alcotest.failf "%s: rewritten rejects (%s), reference accepts" what e

(* every registry workload x preset, on the streaming and one split mapping *)
let test_golden_registry () =
  List.iter
    (fun (aname, arch) ->
      let nl = List.length arch.A.levels in
      List.iter
        (fun (wname, w) ->
          let ctx = Model.context w arch in
          let rctx = Ref.context w arch in
          let what mname = Printf.sprintf "%s on %s (%s)" wname aname mname in
          compare_on (what "streaming") ctx rctx (M.single_level w ~num_levels:nl);
          match split_mapping w ~num_levels:nl with
          | Ok m -> compare_on (what "split") ctx rctx m
          | Error _ -> ())
        (Sun_serve.Registry.workloads ()))
    presets

(* search-produced mappings: richer orders, spatial unrolling, bypasses *)
let test_golden_optimized () =
  List.iter
    (fun (wname, aname, arch) ->
      let w = find_workload wname in
      match Opt.optimize w arch with
      | Error msg -> Alcotest.failf "optimize %s on %s: %s" wname aname msg
      | Ok r ->
        let ctx = Model.context w arch in
        let rctx = Ref.context w arch in
        let what = Printf.sprintf "%s on %s (optimized)" wname aname in
        compare_on what ctx rctx r.Opt.mapping;
        (* the optimizer's reported cost is itself a real evaluation *)
        (match Ref.evaluate_ctx rctx r.Opt.mapping with
        | Ok c' -> check_bits (what ^ ": reported edp") c'.Model.edp r.Opt.cost.Model.edp
        | Error msg -> Alcotest.failf "%s: reference rejects the optimum: %s" what msg))
    [
      ("conv1d", "conventional", P.conventional);
      ("matmul", "conventional", P.conventional);
      ("conv2d", "simba", P.simba_like);
    ]

(* gid order pin: level-major, declaration order within a level *)
let test_gid_order () =
  let w = find_workload "conv2d" in
  Alcotest.(check (list (pair string int)))
    "simba gid order"
    [ ("Wreg", 0); ("Wbuf", 1); ("Ibuf", 1); ("Obuf", 1); ("L2", 2); ("DRAM", 3) ]
    (Array.to_list (Model.partitions (Model.context w P.simba_like)));
  Alcotest.(check (list (pair string int)))
    "conventional gid order"
    [ ("L1", 0); ("L2", 1); ("DRAM", 2) ]
    (Array.to_list (Model.partitions (Model.context w P.conventional)))

(* The row entry point against the named-level one on the same mapping:
   bit-identical score triples or the same error string. *)
let compare_rows what w ctx m =
  let rows = M.Rows.of_levels w m.M.levels in
  (match (Model.score_ctx ctx m, Model.score_rows ctx rows) with
  | Ok s, Ok s' ->
    (* both calls return the same context-owned record: copy the first *)
    let s = Model.copy_score s in
    ignore (Model.score_rows ctx rows);
    check_bits (what ^ ": row score energy") s.Model.s_energy_pj s'.Model.s_energy_pj;
    check_bits (what ^ ": row score cycles") s.Model.s_cycles s'.Model.s_cycles;
    check_bits (what ^ ": row score edp") s.Model.s_edp s'.Model.s_edp
  | Error e, Error e' -> Alcotest.(check string) (what ^ ": row score error") e e'
  | Ok _, Error e -> Alcotest.failf "%s: score_rows rejects (%s), score_ctx accepts" what e
  | Error e, Ok _ -> Alcotest.failf "%s: score_rows accepts, score_ctx rejects (%s)" what e)

(* every registry workload x preset on the streaming, split, unrolled and
   short-by-one-level mappings, plus optimizer-chosen mappings *)
let test_rows_equal_scalar () =
  List.iter
    (fun (aname, arch) ->
      let nl = List.length arch.A.levels in
      List.iter
        (fun (wname, w) ->
          let ctx = Model.context w arch in
          let what mname = Printf.sprintf "%s on %s (%s)" wname aname mname in
          compare_rows (what "streaming") w ctx (M.single_level w ~num_levels:nl);
          compare_rows (what "short") w ctx (M.single_level w ~num_levels:(nl - 1));
          List.iter
            (fun (mname, m) ->
              match m with Ok m -> compare_rows (what mname) w ctx m | Error _ -> ())
            [
              ("split", split_mapping w ~num_levels:nl);
              ("unrolled", unrolled_mapping w ~num_levels:nl);
            ])
        (Sun_serve.Registry.workloads ()))
    presets;
  List.iter
    (fun (wname, aname, arch) ->
      let w = find_workload wname in
      match Opt.optimize w arch with
      | Error msg -> Alcotest.failf "optimize %s on %s: %s" wname aname msg
      | Ok r ->
        compare_rows
          (Printf.sprintf "%s on %s (optimized)" wname aname)
          w (Model.context w arch) r.Opt.mapping)
    [
      ("conv1d", "conventional", P.conventional);
      ("matmul", "conventional", P.conventional);
      ("conv2d", "simba", P.simba_like);
      ("resnet18/conv4_x", "simba", P.simba_like);
      ("mttkrp", "simba", P.simba_like);
    ]

(* the probe's reuse answer equals the two-footprint derivation it replaced *)
let test_probe_changes_footprint () =
  List.iter
    (fun wname ->
      let w = find_workload wname in
      let probe = Probe.create w in
      let dims = W.dim_names w in
      List.iter
        (fun (op : W.operand) ->
          List.iter
            (fun d ->
              let base = W.footprint (fun _ -> 1) op in
              let bumped = W.footprint (fun d' -> if d' = d then 2 else 1) op in
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s/%s" wname op.W.name d)
                (bumped <> base)
                (Probe.changes_footprint probe ~op:op.W.name ~dim:d))
            dims)
        w.W.operands;
      Alcotest.(check bool)
        (wname ^ ": unknown dim never changes a footprint") false
        (Probe.changes_footprint probe ~op:(List.hd w.W.operands).W.name ~dim:"no-such-dim"))
    [ "conv2d"; "mmc"; "mttkrp" ]

(* ------------------------------------------------------------------ *)
(* Gc ground truth: the dynamic oracle the SA070 static lint is pinned  *)
(* to. Each side covers the other's blind spots — the lint sees code the *)
(* harness never executes, the harness sees allocations the token-level  *)
(* approximation cannot (closure captures, compiler-inserted boxing).    *)
(* CI fails if either side disagrees with the other.                     *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words per call, after a warmup that faults in lazy state
   (grow-on-demand scratch) and pays any one-time
   boxing. [reps] large enough to expose even a single boxed float. *)
let words_per_call ~reps f =
  for _ = 1 to 100 do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int reps

let test_gc_score_ctx_zero_alloc () =
  List.iter
    (fun (pname, arch) ->
      let w = find_workload "conv2d" in
      let nl = List.length arch.A.levels in
      let ctx = Model.context w arch in
      List.iter
        (fun (mname, m) ->
          (* only accepted mappings are the zero-allocation contract; the
             reject path legitimately builds its [Error] *)
          if Model.validate_ctx ctx m = Ok () then begin
            let score () =
              match Model.score_ctx ctx m with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e
            in
            let words = words_per_call ~reps:2000 score in
            if words <> 0.0 then
              Alcotest.failf "score_ctx allocates %.2f words/call (%s, %s) — want 0" words
                pname mname
          end)
        [
          ("single_level", M.single_level w ~num_levels:nl);
          ("split", match split_mapping w ~num_levels:nl with
                    | Ok m -> m
                    | Error e -> Alcotest.fail e);
        ])
    presets

(* The search's row entry points: an accepted row score and a bound call
   (at every [fixed_levels]) allocate nothing, on the shapes above plus a
   searched mapping with spatial unrolling and reordered loops. *)
let test_gc_rows_zero_alloc () =
  List.iter
    (fun (pname, arch) ->
      let w = find_workload "conv2d" in
      let nl = List.length arch.A.levels in
      let ctx = Model.context w arch in
      let searched =
        match Opt.optimize w arch with Ok r -> r.Opt.mapping | Error e -> Alcotest.fail e
      in
      List.iter
        (fun (mname, m) ->
          let rows = M.Rows.of_levels w m.M.levels in
          if Model.validate_ctx ctx m = Ok () then begin
            let score () =
              match Model.score_rows ctx rows with Ok _ -> () | Error e -> Alcotest.fail e
            in
            let words = words_per_call ~reps:2000 score in
            if words <> 0.0 then
              Alcotest.failf "score_rows allocates %.2f words/call (%s, %s) — want 0" words pname
                mname
          end;
          for fixed_levels = 0 to nl - 1 do
            let bound () = ignore (Model.prefix_lower_bounds_rows ctx ~fixed_levels rows) in
            let words = words_per_call ~reps:2000 bound in
            if words <> 0.0 then
              Alcotest.failf
                "prefix_lower_bounds_rows allocates %.2f words/call (%s, %s, fixed %d) — want 0" words
                pname mname fixed_levels
          done)
        [
          ("single_level", M.single_level w ~num_levels:nl);
          ( "split",
            match split_mapping w ~num_levels:nl with Ok m -> m | Error e -> Alcotest.fail e );
          ("searched", searched);
        ])
    presets

(* [r] as a prefix below the top pass: its top temporal row all ones. *)
let as_prefix (r : M.Rows.t) =
  let temporal = Array.copy r.M.Rows.temporal in
  let top = Array.length temporal - 1 in
  temporal.(top) <- Array.make (Array.length temporal.(top)) 1;
  { r with M.Rows.temporal }

(* One verdict the bottom-up search computes: the prefix's bound, its
   naive completion and the completion's score on the layout the bound
   loaded. With the rows' own scratch top row, the whole step allocates
   nothing, at every [fixed_levels]. *)
let test_gc_verdict_zero_alloc () =
  List.iter
    (fun (pname, arch) ->
      let w = find_workload "conv2d" in
      let nl = List.length arch.A.levels in
      let ctx = Model.context w arch in
      let bounds = Array.of_list (List.map (W.bound w) (W.dim_names w)) in
      let searched =
        match Opt.optimize w arch with Ok r -> r.Opt.mapping | Error e -> Alcotest.fail e
      in
      let prefix = as_prefix (M.Rows.of_levels w searched.M.levels) in
      let top = Array.make (Array.length bounds) 1 in
      for fixed_levels = 0 to nl - 1 do
        let verdict () =
          ignore (Model.prefix_lower_bounds_rows ctx ~fixed_levels prefix);
          if not (M.Rows.complete_into ~bounds prefix top) then Alcotest.fail "completion";
          match Model.score_with_top ctx top with Ok _ -> () | Error e -> Alcotest.fail e
        in
        let words = words_per_call ~reps:2000 verdict in
        if words <> 0.0 then
          Alcotest.failf "a computed verdict allocates %.2f words (%s, fixed %d) — want 0" words
            pname fixed_levels
      done)
    presets

(* The shared per-level fit test runs once per lattice point of every
   optimizer tile-frontier search; both verdicts must be allocation-free. *)
let test_gc_tile_fit_zero_alloc () =
  List.iter
    (fun (pname, arch) ->
      let w = find_workload "conv2d" in
      let probe = Probe.create w in
      let table = Probe.fit_table probe w arch ~binding:Fun.id in
      let ext = Probe.extents probe in
      let fit () = Probe.level_fits probe table ~level:0 ext in
      List.iter
        (fun (what, extents, want) ->
          Array.blit extents 0 ext 0 (Array.length ext);
          Alcotest.(check bool) (Printf.sprintf "%s: %s tile fits" pname what) want (fit ());
          let words = words_per_call ~reps:2000 (fun () -> ignore (fit ())) in
          if words <> 0.0 then
            Alcotest.failf "tile fit allocates %.2f words/call (%s, %s tile) — want 0" words pname
              what)
        [
          ("unit", Array.make (Array.length ext) 1, true);
          ("whole-layer", Array.of_list (List.map (W.bound w) (W.dim_names w)), false);
        ])
    presets

let test_gc_edf_zero_alloc () =
  let q = Sun_serve.Edf.create () in
  (* pre-warm capacity: steady-state daemons reach a working-set size and
     stay there; growth beyond it is the allocation being amortized *)
  for i = 0 to 63 do
    Sun_serve.Edf.push q ~deadline:(float_of_int i) ~seq:i ()
  done;
  for _ = 0 to 63 do
    ignore (Sun_serve.Edf.pop q)
  done;
  (* deadlines pre-boxed the way the daemon's request records hold them: a
     freshly computed float would be boxed by the caller at the call
     boundary, which is the caller's allocation, not the heap's *)
  let deadlines = Array.init 8 (fun i -> ("req", float_of_int (i * 37 mod 11))) in
  let seq = ref 0 in
  let pairs () =
    for i = 0 to 7 do
      incr seq;
      let _, d = deadlines.(i) in
      Sun_serve.Edf.push q ~deadline:d ~seq:!seq ()
    done;
    for _ = 0 to 7 do
      ignore (Sun_serve.Edf.pop q)
    done
  in
  let words = words_per_call ~reps:2000 pairs /. 8.0 in
  if words <> 0.0 then
    Alcotest.failf "Edf push/pop allocates %.2f words/pair — want 0" words

(* A tile search looks up every point it may test in its scope's verdict
   table and adds each miss. Pre-warmed to 10,000 keys, the table has
   32,768 slots, so 6,384 more keys fit before it doubles: lookups (hits
   and misses) and inserts of new keys below that capacity allocate
   nothing. *)
let test_gc_verdicts_zero_alloc () =
  let module V = Sun_core.Verdicts in
  let t = V.create () in
  let warm = 10_000 in
  for key = 0 to warm - 1 do
    V.add t (key * 7) (key land 1 = 0)
  done;
  let probe = ref 0 in
  let lookup () =
    probe := (!probe + 1) mod warm;
    (* keys that are multiples of 7 are present, the rest absent *)
    ignore (V.find t (!probe * 7));
    ignore (V.find t ((!probe * 7) + 3))
  in
  let words = words_per_call ~reps:2000 lookup /. 2.0 in
  if words <> 0.0 then Alcotest.failf "Verdicts.find allocates %.2f words/lookup — want 0" words;
  let next = ref (warm * 7) in
  let insert () =
    V.add t !next true;
    next := !next + 7
  in
  let words = words_per_call ~reps:2000 insert in
  if words <> 0.0 then Alcotest.failf "Verdicts.add allocates %.2f words/insert — want 0" words;
  Alcotest.(check int) "every key recorded" (warm + 2100) (V.length t);
  Alcotest.(check int) "a recorded fit" 1 (V.find t (warm * 7));
  Alcotest.(check int) "a recorded misfit" 0 (V.find t 7);
  Alcotest.(check int) "an absent key" (-1) (V.find t 3)

(* Static/dynamic agreement: the production tree must carry zero SA070
   diagnostics (the static side of the gate) while the Gc assertions above
   hold (the dynamic side). A disagreement in either direction — a finding
   on a path the harness measures at zero, or measured allocation on a path
   the lint passes — fails this suite. *)
let test_static_dynamic_agreement () =
  let rec find d =
    if Sys.file_exists (Filename.concat d "dune-project") then Some d
    else
      let parent = Filename.dirname d in
      if parent = d then None else find parent
  in
  match find (Sys.getcwd ()) with
  | None -> ()
  | Some root ->
    let roots =
      List.filter Sys.file_exists (List.map (Filename.concat root) [ "lib"; "bin"; "bench" ])
    in
    if roots <> [] then begin
      let module Srclint = Sun_srclint.Srclint in
      let module D = Sun_analysis.Diagnostic in
      let r = Srclint.scan ~roots () in
      let hot_codes = [ "SA070"; "SA073"; "SA074" ] in
      let hot_hits =
        List.filter
          (fun (h : Srclint.hit) -> List.mem (D.code_id h.Srclint.h_diag.D.code) hot_codes)
          r.Srclint.hits
      in
      Alcotest.(check (list string))
        "static lint agrees with the Gc oracle: zero hot-path findings" []
        (List.map Srclint.hit_string hot_hits)
    end

let qcheck_props =
  let open QCheck in
  let probe_matches_direct wname =
    let w = find_workload wname in
    let dims = W.dim_names w in
    let ndims = List.length dims in
    let probe = Probe.create w in
    Test.make ~count:200
      ~name:(Printf.sprintf "probe = W.footprint (%s)" wname)
      (list_of_size (Gen.return ndims) (int_range 1 8))
      (fun extents ->
        let tbl = List.combine dims extents in
        let ext d = List.assoc d tbl in
        List.iter (fun d -> (Probe.extents probe).(Probe.dim_index probe d) <- ext d) dims;
        List.for_all
          (fun (op : W.operand) ->
            bits (Probe.footprint probe (Probe.axes probe ~op:op.W.name))
            = bits (W.footprint ext op))
          w.W.operands)
  in
  [ probe_matches_direct "conv2d"; probe_matches_direct "mmc" ]

(* The workloads the row properties below run on. *)
let row_subjects =
  [
    ("resnet18/conv3_x on simba", find_workload "resnet18/conv3_x", P.simba_like);
    ( "inception wu on conventional",
      (List.nth (Sun_workloads.Inception.weight_update_layers ()) 3).Sun_workloads.Inception.workload,
      P.conventional );
    ("sddmm/cant on simba", find_workload "sddmm/cant", P.simba_like);
  ]

(* Random rows for a level [k] below the top: each prime factor of every
   dim is placed at a random level, mostly temporally and at the top so
   that many of them fit, never temporally at [k]; every order is a random
   permutation. Returns [k], the rows and one more random permutation. *)
let random_rows (w, arch) seed =
  let rng = Sun_util.Rng.create seed in
  let nl = List.length arch.A.levels and dims = Array.of_list (W.dim_names w) in
  let n = Array.length dims in
  let k = Sun_util.Rng.int rng (nl - 1) in
  let temporal = Array.init nl (fun _ -> Array.make n 1) in
  let spatial = Array.init nl (fun _ -> Array.make n 1) in
  Array.iteri
    (fun j d ->
      List.iter
        (fun (p, e) ->
          for _ = 1 to e do
            let r = Sun_util.Rng.int rng 20 and l = Sun_util.Rng.int rng nl in
            if r < 2 then spatial.(l).(j) <- spatial.(l).(j) * p
            else if r < 10 || l = k then temporal.(nl - 1).(j) <- temporal.(nl - 1).(j) * p
            else temporal.(l).(j) <- temporal.(l).(j) * p
          done)
        (Sun_util.Factor.prime_factorization (W.bound w d)))
    dims;
  let perm () = Array.of_list (Sun_util.Rng.shuffle rng (List.init n Fun.id)) in
  let order = Array.init nl (fun _ -> perm ()) in
  (k, { M.Rows.temporal; spatial; order }, perm ())

(* Order blindness, the invariant the bottom-up search's shared verdicts
   rest on: when level [k] below the top holds no temporal loop (its
   temporal row is all ones), the order of level [k] changes neither the
   score, nor the bound with [k] levels fixed, nor the row check, on
   {!random_rows}. *)
let order_blindness_props =
  let open QCheck in
  let subjects =
    List.map (fun (name, w, arch) -> (name, w, arch, Model.context w arch)) row_subjects
  in
  let verdict ctx ~bounds ~k (r : M.Rows.t) =
    let score =
      match Model.score_rows ctx r with
      | Ok s ->
        Printf.sprintf "%Lx %Lx %Lx" (bits s.Model.s_energy_pj) (bits s.Model.s_cycles)
          (bits s.Model.s_edp)
      | Error msg -> msg
    in
    let b = Model.prefix_lower_bounds_rows ctx ~fixed_levels:k r in
    Printf.sprintf "score %s; bound %Lx %Lx; valid %b" score (bits b.Model.lb_energy_pj)
      (bits b.Model.lb_cycles) (M.Rows.valid ~bounds r)
  in
  List.map
    (fun (name, w, arch, ctx) ->
      let bounds = Array.of_list (List.map (W.bound w) (W.dim_names w)) in
      Test.make ~count:300
        ~name:(Printf.sprintf "order of an all-ones level is invisible (%s)" name)
        (make ~print:string_of_int Gen.(int_bound 1_000_000))
        (fun seed ->
          let k, r, order_k = random_rows (w, arch) seed in
          let order = Array.copy r.M.Rows.order in
          order.(k) <- order_k;
          let before = verdict ctx ~bounds ~k r in
          let after = verdict ctx ~bounds ~k { r with M.Rows.order } in
          before = after || Test.fail_reportf "level %d: %s <> %s" k before after))
    subjects

(* One load per verdict: the bound of a prefix, then the score of its naive
   completion on the layout the bound loaded ([Model.score_with_top]),
   give the bits a fresh context gives for [prefix_lower_bounds_rows] on
   the prefix and [score_rows] on the completed rows, or the same error,
   at every [fixed_levels]. The rows are [order_blindness_props]' random
   rows taken as a prefix below the top pass. *)
let one_load_props =
  let open QCheck in
  let score_bits = function
    | Ok (s : Model.score) ->
      Printf.sprintf "%Lx %Lx %Lx" (bits s.Model.s_energy_pj) (bits s.Model.s_cycles)
        (bits s.Model.s_edp)
    | Error msg -> msg
  in
  let bound_bits (b : Model.bounds) =
    Printf.sprintf "%Lx %Lx" (bits b.Model.lb_energy_pj) (bits b.Model.lb_cycles)
  in
  List.map
    (fun (name, w, arch) ->
      let ctx = Model.context w arch and fresh = Model.context w arch in
      let bounds = Array.of_list (List.map (W.bound w) (W.dim_names w)) in
      let nl = List.length arch.A.levels in
      Test.make ~count:300
        ~name:(Printf.sprintf "one-load score = score_rows, bound unchanged (%s)" name)
        (make ~print:string_of_int Gen.(int_bound 1_000_000))
        (fun seed ->
          let _, r, _ = random_rows (w, arch) seed in
          let prefix = as_prefix r in
          let top = Array.make (Array.length bounds) 0 in
          if not (M.Rows.complete_into ~bounds prefix top) then Test.fail_report "completion";
          let completed = { r with M.Rows.temporal = Array.copy r.M.Rows.temporal } in
          completed.M.Rows.temporal.(nl - 1) <- top;
          List.for_all
            (fun fixed_levels ->
              let bound = bound_bits (Model.prefix_lower_bounds_rows ctx ~fixed_levels prefix) in
              let score = score_bits (Model.score_with_top ctx top) in
              let bound' = bound_bits (Model.prefix_lower_bounds_rows fresh ~fixed_levels prefix) in
              let score' = score_bits (Model.score_rows fresh completed) in
              (bound = bound' && score = score')
              || Test.fail_reportf "fixed %d: bound %s vs %s, score %s vs %s" fixed_levels bound
                   bound' score score')
            (List.init nl Fun.id)))
    row_subjects

let () =
  Alcotest.run "model hot path"
    [
      ( "golden bit-identity",
        [
          Alcotest.test_case "registry x presets" `Quick test_golden_registry;
          Alcotest.test_case "optimized mappings" `Quick test_golden_optimized;
        ] );
      ( "context",
        [ Alcotest.test_case "gid assignment order" `Quick test_gid_order ] );
      ( "rows",
        [ Alcotest.test_case "row entry points = scalar" `Quick test_rows_equal_scalar ] );
      ( "probe",
        [
          Alcotest.test_case "changes_footprint = derivation" `Quick test_probe_changes_footprint;
        ] );
      ( "gc oracle",
        [
          Alcotest.test_case "score_ctx is allocation-free" `Quick
            test_gc_score_ctx_zero_alloc;
          Alcotest.test_case "row score and bound are allocation-free" `Quick
            test_gc_rows_zero_alloc;
          Alcotest.test_case "Edf push/pop is allocation-free" `Quick
            test_gc_edf_zero_alloc;
          Alcotest.test_case "static lint agrees" `Quick test_static_dynamic_agreement;
          Alcotest.test_case "tile fit is allocation-free" `Quick test_gc_tile_fit_zero_alloc;
          Alcotest.test_case "verdict table is allocation-free" `Quick
            test_gc_verdicts_zero_alloc;
          Alcotest.test_case "a computed verdict is allocation-free" `Quick
            test_gc_verdict_zero_alloc;
        ] );
      ("probe properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
      ("order blindness", List.map QCheck_alcotest.to_alcotest order_blindness_props);
      ("one-load verdict", List.map QCheck_alcotest.to_alcotest one_load_props);
    ]
