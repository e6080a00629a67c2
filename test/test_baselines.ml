module W = Sun_tensor.Workload
module C = Sun_tensor.Catalog
module P = Sun_arch.Presets
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Probe = Sun_cost.Probe
module B = Sun_baselines
module Mapper = B.Mapper

let layer = C.conv2d ~n:16 ~k:64 ~c:64 ~p:14 ~q:14 ~r:3 ~s:3 ()
let small_tl = { B.Timeloop_like.fast with B.Timeloop_like.threads = 2 }

(* ----------------------------- mapper ------------------------------ *)

let test_mapper_outcome () =
  let m = M.single_level layer ~num_levels:3 in
  let o =
    Mapper.of_mapping ~tool:"t" ~examined:1 ~wall_seconds:0.0 layer P.conventional (Some m)
  in
  Alcotest.(check bool) "valid naive" true o.Mapper.valid;
  Alcotest.(check bool) "edp finite" true (Float.is_finite (Mapper.edp o));
  let bad =
    Mapper.of_mapping ~tool:"t" ~examined:1 ~wall_seconds:0.0 layer
      (P.toy ~l1_words:8 ~l2_words:16 ~pes:4 ())
      None
  in
  Alcotest.(check bool) "none invalid" false bad.Mapper.valid;
  Alcotest.(check bool) "edp infinite" true (Mapper.edp bad = Float.infinity)

let test_mapper_detects_overflow () =
  (* a mapping that overflows L1 must be reported invalid, mirroring how
     CoSA's rounded outputs are judged *)
  let w = C.matmul ~m:64 ~n:64 ~k:64 () in
  let arch = P.toy ~l1_words:8 ~l2_words:100000 ~pes:4 () in
  let dims = [ "M"; "N"; "K" ] in
  let ones = List.map (fun d -> (d, 1)) dims in
  let level t = { M.temporal = t; order = dims; spatial = ones } in
  let m =
    M.make_exn w
      [ level [ ("M", 64); ("N", 1); ("K", 1) ]; level ones; level [ ("M", 1); ("N", 64); ("K", 64) ] ]
  in
  let o = Mapper.of_mapping ~tool:"t" ~examined:1 ~wall_seconds:0.0 w arch (Some m) in
  Alcotest.(check bool) "overflow flagged" false o.Mapper.valid

(* --------------------------- timeloop ------------------------------ *)

let test_timeloop_finds_valid () =
  let o = B.Timeloop_like.run ~config:small_tl layer P.conventional in
  Alcotest.(check bool) "valid" true o.Mapper.valid;
  Alcotest.(check bool) "examined several" true (o.Mapper.examined > 20)

let test_timeloop_deterministic () =
  let a = B.Timeloop_like.run ~config:small_tl layer P.conventional in
  let b = B.Timeloop_like.run ~config:small_tl layer P.conventional in
  Alcotest.(check (float 0.0)) "same result for same seed" (Mapper.edp a) (Mapper.edp b)

let test_timeloop_slow_no_worse () =
  let slow_cfg = { B.Timeloop_like.slow with B.Timeloop_like.threads = 2 } in
  let fast = B.Timeloop_like.run ~config:small_tl layer P.conventional in
  let slow = B.Timeloop_like.run ~config:slow_cfg layer P.conventional in
  Alcotest.(check bool) "slow explores at least as much" true
    (slow.Mapper.examined >= fast.Mapper.examined);
  Alcotest.(check bool) "slow EDP <= fast EDP" true (Mapper.edp slow <= Mapper.edp fast +. 1e-6)

(* ----------------------------- dmaze ------------------------------- *)

let test_dmaze_rejects_asymmetric () =
  let asym = C.conv2d ~n:16 ~k:64 ~c:64 ~p:17 ~q:17 ~r:1 ~s:7 () in
  let o = B.Dmaze_like.run asym P.conventional in
  Alcotest.(check bool) "asymmetric rejected" false o.Mapper.valid;
  Alcotest.(check int) "rejected before searching" 0 o.Mapper.examined

let test_dmaze_underutilized_layer_fails () =
  (* tiny layer cannot reach the L2 utilization floor of the fast config *)
  let small = C.conv2d ~n:1 ~k:8 ~c:8 ~p:7 ~q:7 ~r:3 ~s:3 () in
  let o = B.Dmaze_like.run ~config:B.Dmaze_like.fast small P.conventional in
  Alcotest.(check bool) "no valid mapping" false o.Mapper.valid

(* The capacity predicate's fill of [level] at mapping [m]'s cumulative
   tile extents. *)
let fill_at w arch m ~level =
  let probe = Probe.create w in
  let ext = Probe.extents probe in
  List.iteri (fun i d -> ext.(i) <- M.tile_at m ~level d) (W.dim_names w);
  Probe.fill probe (Probe.fit_table probe w arch ~binding:Fun.id) ~level ext

let test_dmaze_valid_on_large_layer () =
  (* a layer big enough to clear the 40% L2 floor of the slow config, and
     to run into the examined budget: the stop is a count, so where it
     lands and the mapping found by then are pinned exactly *)
  let big = C.conv2d ~n:16 ~k:64 ~c:64 ~p:56 ~q:56 ~r:3 ~s:3 () in
  let o = B.Dmaze_like.run ~config:B.Dmaze_like.slow big P.conventional in
  Alcotest.(check bool) "valid on batch-16 layer" true o.Mapper.valid;
  Alcotest.(check int) "stopped just past the examined budget" 12_000_014 o.Mapper.examined;
  Alcotest.(check bool) "the budget is what stopped it" true
    (o.Mapper.examined >= B.Enumerator.examined_budget);
  Alcotest.(check string) "EDP bits at the budget" "4351ef4b55062b1d"
    (Printf.sprintf "%Lx" (Int64.bits_of_float (Mapper.edp o)));
  match o.Mapper.mapping with
  | Some m ->
    (* the returned mapping honors the thresholds it was searched under *)
    let l2_fill = fill_at big P.conventional m ~level:1 in
    Alcotest.(check bool)
      (Printf.sprintf "L2 fill %.2f >= 0.4" l2_fill)
      true (l2_fill >= 0.4 -. 1e-9)
  | None -> Alcotest.fail "expected mapping"

let test_dmaze_no_spatial_reduction_in_fast () =
  let o = B.Dmaze_like.run ~config:B.Dmaze_like.fast layer P.conventional in
  match o.Mapper.mapping with
  | Some m ->
    let out = W.output layer in
    for l = 0 to M.num_levels m - 1 do
      List.iter
        (fun (d, f) ->
          if f > 1 then
            Alcotest.(check bool)
              (Printf.sprintf "unrolled %s indexes the output" d)
              true (W.is_indexing out d))
        m.M.levels.(l).M.spatial
    done
  | None -> () (* thresholds may legitimately reject; covered above *)

(* ---------------------- directed enumerators ----------------------- *)

(* dMaze-like and Interstellar-like on five Fig 7 cells: examined counts
   and EDP bits, pinned exactly. Any change to either enumerator's spatial
   or tile choices, its fit test, its order trials or its scoring moves
   one of these. *)
let test_enumerators_pinned () =
  let layer name =
    (List.find
       (fun (l : Sun_workloads.Inception.layer) -> l.Sun_workloads.Inception.layer_name = name)
       (Sun_workloads.Inception.weight_update_layers ~batch:16 ()))
      .Sun_workloads.Inception.workload
  in
  let dmaze config w = B.Dmaze_like.run ~config w P.conventional in
  let inter w = B.Interstellar_like.run w P.conventional in
  List.iter
    (fun (tool, run, name, examined, edp_bits) ->
      let o = run (layer name) in
      let what = tool ^ " on " ^ name in
      Alcotest.(check bool) (what ^ " valid") true o.Mapper.valid;
      Alcotest.(check int) (what ^ " examined") examined o.Mapper.examined;
      Alcotest.(check string) (what ^ " EDP bits")
        (Printf.sprintf "%Lx" edp_bits)
        (Printf.sprintf "%Lx" (Int64.bits_of_float (Mapper.edp o))))
    [
      ("dMaze-fast", dmaze B.Dmaze_like.fast, "3x3_stem", 2_308, 0x436dc44c1d888eddL);
      ("dMaze-fast", dmaze B.Dmaze_like.fast, "5x5_5b", 57_450, 0x4343ea9eebca97d6L);
      ("INTER", inter, "3x3_5b", 43_694, 0x43365cc7b242f14aL);
      ("INTER", inter, "1x3_deep", 363_091, 0x431030654a97681eL);
      ("dMaze-slow", dmaze B.Dmaze_like.slow, "1x1_5b", 519_095, 0x4306351db2cfb3b0L);
    ]

(* -------------------------- interstellar --------------------------- *)

let test_interstellar_ck_unrolling () =
  let o = B.Interstellar_like.run layer P.conventional in
  Alcotest.(check bool) "valid" true o.Mapper.valid;
  match o.Mapper.mapping with
  | Some m ->
    (* the prescription: spatial unrolling confined to C and K whenever CK
       can fill the array *)
    for l = 0 to M.num_levels m - 1 do
      List.iter
        (fun (d, f) ->
          if f > 1 then
            Alcotest.(check bool)
              (Printf.sprintf "%s is C or K" d)
              true
              (List.mem d [ "C"; "K" ]))
        m.M.levels.(l).M.spatial
    done
  | None -> Alcotest.fail "expected mapping"

let test_interstellar_fallback_on_small_channels () =
  (* C x K = 4 cannot fill 1024 PEs: other dims must be admitted *)
  let thin = C.conv2d ~n:16 ~k:2 ~c:2 ~p:56 ~q:56 ~r:3 ~s:3 () in
  let o = B.Interstellar_like.run thin P.conventional in
  Alcotest.(check bool) "still valid" true o.Mapper.valid;
  match o.Mapper.mapping with
  | Some m ->
    let unrolled_non_ck = ref false in
    for l = 0 to M.num_levels m - 1 do
      List.iter
        (fun (d, f) -> if f > 1 && not (List.mem d [ "C"; "K" ]) then unrolled_non_ck := true)
        m.M.levels.(l).M.spatial
    done;
    Alcotest.(check bool) "widened beyond CK" true !unrolled_non_ck
  | None -> Alcotest.fail "expected mapping"

let test_interstellar_preset_on_foreign_workload () =
  (* MTTKRP happens to have a K dimension, so the CK preset degenerates to
     K-only unrolling; workloads without any preset dim are rejected *)
  let mm = C.mttkrp ~i:64 ~j:32 ~k:64 ~l:64 () in
  let o = B.Interstellar_like.run mm P.conventional in
  (* K=64 cannot fill 1024 PEs so the tool legitimately widens; it must at
     least return something structurally sound *)
  Alcotest.(check bool) "returns a mapping" true (o.Mapper.mapping <> None);
  let custom =
    W.make ~name:"axpy"
      ~dims:[ ("X", 4096) ]
      ~operands:
        [
          { W.name = "a"; kind = `Input; indices = [ W.Dim "X" ] };
          { W.name = "out"; kind = `Output; indices = [ W.Dim "X" ] };
        ]
  in
  let o2 = B.Interstellar_like.run custom P.conventional in
  Alcotest.(check bool) "no preset dims: rejected" false o2.Mapper.valid

(* ------------------------------ cosa -------------------------------- *)

let test_cosa_one_shot () =
  let o = B.Cosa_like.run layer P.conventional in
  Alcotest.(check int) "single shot" 1 o.Mapper.examined;
  Alcotest.(check bool) "fast" true (o.Mapper.wall_seconds < 1.0)

let test_cosa_produces_structurally_complete () =
  let o = B.Cosa_like.run layer P.simba_like in
  match o.Mapper.mapping with
  | Some m ->
    List.iter
      (fun (d, b) -> Alcotest.(check int) d b (M.tile_at m ~level:(M.num_levels m - 1) d))
      layer.W.dims
  | None -> Alcotest.fail "CoSA must always emit a mapping"

let test_cosa_invalidity_on_simba () =
  (* the paper's observation: a large fraction of CoSA mappings overflow on
     the Simba-like machine *)
  let layers = Sun_workloads.Resnet18.layers ~batch:16 () in
  let invalid =
    List.length
      (List.filter
         (fun (l : Sun_workloads.Resnet18.layer) ->
           not (B.Cosa_like.run l.Sun_workloads.Resnet18.workload P.simba_like).Mapper.valid)
         layers)
  in
  let n = List.length layers in
  Alcotest.(check bool)
    (Printf.sprintf "invalid on %d/%d layers (expect a substantial fraction, not all)" invalid n)
    true
    (invalid >= n / 3 && invalid < n)

(* --------------------------- space sizes ---------------------------- *)

let test_space_size_ordering () =
  let w = Sun_workloads.Inception.example_layer in
  let arch = P.conventional in
  let t = B.Space_size.timeloop w arch in
  let i = B.Space_size.interstellar w arch in
  let m = B.Space_size.marvel w arch in
  let s = B.Space_size.sunstone w arch in
  Alcotest.(check bool) "timeloop biggest" true
    (t.B.Space_size.space > i.B.Space_size.space && t.B.Space_size.space > m.B.Space_size.space);
  Alcotest.(check bool) "sunstone smallest constructed" true
    (s.B.Space_size.space < m.B.Space_size.space /. 1e3);
  Alcotest.(check int) "sunstone uses 4 reuse dims" 4 s.B.Space_size.tile_dims;
  Alcotest.(check int) "interstellar unrolls 2 dims" 2 i.B.Space_size.unroll_dims

let () =
  Alcotest.run "sun_baselines"
    [
      ( "mapper",
        [
          Alcotest.test_case "outcome fields" `Quick test_mapper_outcome;
          Alcotest.test_case "overflow detection" `Quick test_mapper_detects_overflow;
        ] );
      ( "timeloop-like",
        [
          Alcotest.test_case "finds valid" `Quick test_timeloop_finds_valid;
          Alcotest.test_case "deterministic" `Quick test_timeloop_deterministic;
          Alcotest.test_case "slow config no worse" `Slow test_timeloop_slow_no_worse;
        ] );
      ( "dmaze-like",
        [
          Alcotest.test_case "asymmetric rejected" `Quick test_dmaze_rejects_asymmetric;
          Alcotest.test_case "underutilization fails" `Quick test_dmaze_underutilized_layer_fails;
          Alcotest.test_case "valid on large layers" `Slow test_dmaze_valid_on_large_layer;
          Alcotest.test_case "fast forbids spatial reduction" `Slow
            test_dmaze_no_spatial_reduction_in_fast;
        ] );
      ( "directed enumerators",
        [ Alcotest.test_case "Fig 7 cells pinned" `Quick test_enumerators_pinned ] );
      ( "interstellar-like",
        [
          Alcotest.test_case "CK unrolling" `Quick test_interstellar_ck_unrolling;
          Alcotest.test_case "fallback on small channels" `Quick
            test_interstellar_fallback_on_small_channels;
          Alcotest.test_case "preset on foreign workloads" `Quick
            test_interstellar_preset_on_foreign_workload;
        ] );
      ( "cosa-like",
        [
          Alcotest.test_case "one shot" `Quick test_cosa_one_shot;
          Alcotest.test_case "structurally complete" `Quick test_cosa_produces_structurally_complete;
          Alcotest.test_case "invalidity on simba" `Quick test_cosa_invalidity_on_simba;
        ] );
      ("space sizes (Table I)", [ Alcotest.test_case "ordering" `Quick test_space_size_ordering ]);
    ]
