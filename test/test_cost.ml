(* Validates the analytical cost model against the closed-form access
   equations the paper derives for the running 1-D convolution example
   (Equations 1-3 for tiling, Equations 5-7 for spatial unrolling). *)

module W = Sun_tensor.Workload
module C = Sun_tensor.Catalog
module A = Sun_arch.Arch
module P = Sun_arch.Presets
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Probe = Sun_cost.Probe

let dims = [ "K"; "C"; "P"; "R" ]
let ones = List.map (fun d -> (d, 1)) dims

let lm ?(spatial = ones) ?(order = dims) temporal : M.level_mapping =
  let fill assoc =
    List.map (fun d -> match List.assoc_opt d assoc with Some f -> (d, f) | None -> (d, 1)) dims
  in
  { M.temporal = fill temporal; order; spatial = fill spatial }

(* K = KL2*KL1, C = CL2*CL1, P = PL2*PL1, R in L1. L2 order: P, K, C
   (C innermost) as in Algorithm 4. *)
let kl1 = 2
and kl2 = 2
and cl1 = 2
and cl2 = 2
and pl1 = 7
and pl2 = 2
and r = 3

let conv = C.conv1d ~k:(kl1 * kl2) ~c:(cl1 * cl2) ~p:(pl1 * pl2) ~r ()
let arch = P.toy ~l1_words:64 ~l2_words:512 ~pes:4 ()

let algorithm4 =
  M.make_exn conv
    [
      lm [ ("K", kl1); ("P", pl1); ("C", cl1); ("R", r) ];
      lm ~order:[ "P"; "K"; "C"; "R" ] [ ("K", kl2); ("P", pl2); ("C", cl2) ];
      lm [];
    ]

let transfer cost ~operand ~from_level ~to_level =
  match
    List.find_opt
      (fun (t : Model.transfer) ->
        t.Model.operand = operand && t.Model.from_level = from_level && t.Model.to_level = to_level)
      cost.Model.transfers
  with
  | Some t -> t
  | None -> Alcotest.failf "no transfer %s L%d->L%d" operand from_level to_level

let check_f = Alcotest.(check (float 1e-6))

let test_equations_1_to_3 () =
  let cost = Model.evaluate_exn conv arch algorithm4 in
  let l2_reads name = (transfer cost ~operand:name ~from_level:1 ~to_level:0).Model.reads in
  let kf = float_of_int in
  (* Eq 1: ifmap accesses to L2 = KL2 * C * PL2 * (PL1 + R - 1) *)
  check_f "Eq 1 (ifmap)" (kf (kl2 * cl1 * cl2 * pl2 * (pl1 + r - 1))) (l2_reads "ifmap");
  (* Eq 2: weight accesses = C * K * R * PL2 *)
  check_f "Eq 2 (weight)" (kf (cl1 * cl2 * kl1 * kl2 * r * pl2)) (l2_reads "weight");
  (* Eq 3: ofmap accesses = P * K (C innermost reuses ofmap across L1 tiles) *)
  check_f "Eq 3 (ofmap)" (kf (pl1 * pl2 * kl1 * kl2)) (l2_reads "ofmap")

(* Swapping the two innermost L2 loops (C before K) destroys the ofmap reuse
   (Ordering Principle 2): ofmap traffic picks up the CL2 factor. *)
let test_ordering_principle_2 () =
  let reordered =
    M.make_exn conv
      [
        lm [ ("K", kl1); ("P", pl1); ("C", cl1); ("R", r) ];
        lm ~order:[ "P"; "C"; "K"; "R" ] [ ("K", kl2); ("P", pl2); ("C", cl2) ];
        lm [];
      ]
  in
  let cost = Model.evaluate_exn conv arch reordered in
  let reads = (transfer cost ~operand:"ofmap" ~from_level:1 ~to_level:0).Model.reads in
  check_f "ofmap refetched CL2 times"
    (float_of_int (pl1 * pl2 * kl1 * kl2 * cl2))
    reads

(* Partial (sliding-window) reuse: with P innermost at L2, consecutive L1
   tiles overlap in ifmap by R-1 rows; the model must charge the union. *)
let test_partial_reuse () =
  let p_innermost =
    M.make_exn conv
      [
        lm [ ("K", kl1); ("P", pl1); ("C", cl1); ("R", r) ];
        lm ~order:[ "C"; "K"; "P"; "R" ] [ ("K", kl2); ("P", pl2); ("C", cl2) ];
        lm [];
      ]
  in
  let cost = Model.evaluate_exn conv arch p_innermost in
  let reads = (transfer cost ~operand:"ifmap" ~from_level:1 ~to_level:0).Model.reads in
  (* union along P: (PL2*PL1 + R - 1) * CL1, repeated KL2 * CL2 times *)
  check_f "sliding union"
    (float_of_int (kl2 * cl2 * ((pl2 * pl1) + r - 1) * cl1))
    reads

(* Equations 5-7: unrolling K across PEs broadcasts ifmap (no extra L2
   reads) while weight/ofmap traffic is redistributed, not multiplied. *)
let test_equations_5_to_7 () =
  let spatial_k =
    M.make_exn conv
      [
        lm [ ("P", pl1); ("C", cl1); ("R", r) ];
        lm
          ~order:[ "P"; "K"; "C"; "R" ]
          ~spatial:[ ("K", kl1) ]
          [ ("K", kl2); ("P", pl2); ("C", cl2) ];
        lm [];
      ]
  in
  let cost = Model.evaluate_exn conv arch spatial_k in
  let rd name = (transfer cost ~operand:name ~from_level:1 ~to_level:0).Model.reads in
  let kf = float_of_int in
  (* Eq 5: ifmap accesses unchanged by K_spatial (broadcast) *)
  check_f "Eq 5 (ifmap)" (kf (kl2 * cl1 * cl2 * pl2 * (pl1 + r - 1))) (rd "ifmap");
  (* Eq 6: weight accesses = C * K * R * PL2 — K_spatial absorbed into tile *)
  check_f "Eq 6 (weight)" (kf (cl1 * cl2 * kl1 * kl2 * r * pl2)) (rd "weight");
  (* Eq 7: ofmap accesses = P * K *)
  check_f "Eq 7 (ofmap)" (kf (pl1 * pl2 * kl1 * kl2)) (rd "ofmap");
  (* ifmap is delivered to both PEs: fills count each destination *)
  let t = transfer cost ~operand:"ifmap" ~from_level:1 ~to_level:0 in
  check_f "broadcast fills" (t.Model.reads *. 2.0) t.Model.fills

let test_validation_capacity () =
  let too_big =
    M.make_exn conv
      [
        lm [ ("K", kl1 * kl2); ("P", pl1 * pl2); ("C", cl1 * cl2); ("R", r) ];
        lm [];
        lm [];
      ]
  in
  (match Model.validate conv (P.toy ~l1_words:8 ~l2_words:1_000_000 ~pes:4 ()) too_big with
  | Error msg -> Alcotest.(check bool) "names partition" true (String.length msg > 0)
  | Ok () -> Alcotest.fail "expected capacity violation");
  match Model.validate conv arch algorithm4 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "algorithm4 should fit: %s" msg

let test_validation_fanout () =
  let too_wide =
    M.make_exn conv
      [
        lm [ ("P", pl1); ("C", cl1); ("R", r) ];
        lm ~spatial:[ ("K", kl1 * kl2); ("C", cl2); ("P", pl2) ] [];
        lm [];
      ]
  in
  match Model.validate conv arch too_wide with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected fanout violation (16 > 4 PEs)"

let test_level_mismatch () =
  let two_level = M.single_level conv ~num_levels:2 in
  match Model.evaluate conv arch two_level with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected level-count mismatch"

let test_streaming_baseline_worst () =
  (* everything at DRAM level: maximal energy among valid mappings *)
  let naive = M.single_level conv ~num_levels:3 in
  let c_naive = Model.evaluate_exn conv arch naive in
  let c_tiled = Model.evaluate_exn conv arch algorithm4 in
  Alcotest.(check bool) "tiling saves energy" true (c_tiled.Model.energy_pj < c_naive.Model.energy_pj);
  Alcotest.(check bool) "edp consistent" true
    (Float.abs (c_tiled.Model.edp -. (c_tiled.Model.energy_pj *. c_tiled.Model.cycles)) < 1e-6)

let test_breakdown_sums () =
  let c = Model.evaluate_exn conv arch algorithm4 in
  let total = List.fold_left (fun s (_, v) -> s +. v) 0.0 c.Model.breakdown in
  check_f "breakdown sums to energy" c.Model.energy_pj total;
  Alcotest.(check bool) "has MAC entry" true (List.mem_assoc "MAC" c.Model.breakdown)

(* The search's alpha-beta bounds on the prefixes of a complete mapping. *)
let prefix_bounds w arch m ~k =
  let prefix = Sun_analysis.Audit.search_prefix w m ~k in
  let b =
    Model.prefix_lower_bounds_rows (Model.context w arch) ~fixed_levels:k
      (M.Rows.of_levels w prefix.M.levels)
  in
  (b.Model.lb_energy_pj, b.Model.lb_cycles)

let test_lower_bound () =
  let full = Model.evaluate_exn conv arch algorithm4 in
  for k = 0 to M.num_levels algorithm4 - 1 do
    let e, c = prefix_bounds conv arch algorithm4 ~k in
    Alcotest.(check bool) (Printf.sprintf "energy bound below total at %d" k) true
      (e <= full.Model.energy_pj +. 1e-6);
    Alcotest.(check bool) (Printf.sprintf "cycles bound below total at %d" k) true
      (c <= full.Model.cycles +. 1e-6)
  done;
  (* committing level 1 adds its streaming reads and the L1 boundary *)
  let e0, _ = prefix_bounds conv arch algorithm4 ~k:0 in
  let e1, _ = prefix_bounds conv arch algorithm4 ~k:1 in
  Alcotest.(check bool) "bound monotone in levels" true (e0 <= e1 +. 1e-6)

(* Simba-like arch: weights bypass L2; the weight chain must be
   DRAM -> L1 -> Reg with no L2 transfer. *)
let test_bypass_chain () =
  let w = C.conv1d ~k:8 ~c:8 ~p:8 ~r:1 () in
  let dims = [ "K"; "C"; "P"; "R" ] in
  let ones = List.map (fun d -> (d, 1)) dims in
  let level ?(order = dims) ?(spatial = ones) t =
    let fill assoc =
      List.map (fun d -> match List.assoc_opt d assoc with Some f -> (d, f) | None -> (d, 1)) dims
    in
    { M.temporal = fill t; order; spatial = fill spatial }
  in
  let m =
    M.make_exn w
      [
        level [ ("P", 2) ];
        (* Reg *)
        level [ ("C", 8) ];
        (* L1 *)
        level [ ("K", 8) ];
        (* L2 *)
        level [ ("P", 4) ];
        (* DRAM *)
      ]
  in
  let binding = Fun.id in
  let cost = Model.evaluate_exn ~binding w P.simba_like m in
  let weight_pairs =
    List.filter
      (fun (t : Model.transfer) -> t.Model.operand = "weight" && t.Model.to_level >= 0)
      cost.Model.transfers
  in
  let pairs = List.map (fun (t : Model.transfer) -> (t.Model.from_level, t.Model.to_level)) weight_pairs in
  Alcotest.(check (list (pair int int))) "weight skips L2" [ (1, 0); (3, 1) ] pairs

let qcheck_props =
  let open QCheck in
  let splits_of n = Sun_util.Factor.divisors n in
  let gen_map =
    (* random 3-level mapping of a fixed conv on the toy arch *)
    Gen.(
      map
        (fun (a, b, c, seed) -> (a, b, c, seed))
        (tup4 (0 -- 100) (0 -- 100) (0 -- 100) (0 -- 1000)))
  in
  let build (a, b, c, seed) =
    let pick xs i = List.nth xs (i mod List.length xs) in
    let k1 = pick (splits_of 8) a in
    let c1 = pick (splits_of 8) b in
    let p1 = pick (splits_of 8) c in
    let rng = Sun_util.Rng.create seed in
    let order () = Sun_util.Rng.shuffle rng dims in
    let fill assoc =
      List.map (fun d -> match List.assoc_opt d assoc with Some f -> (d, f) | None -> (d, 1)) dims
    in
    let w = C.conv1d ~k:8 ~c:8 ~p:8 ~r:3 () in
    let m =
      M.make_exn w
        [
          { M.temporal = fill [ ("K", k1); ("C", c1); ("P", p1); ("R", 3) ]; order = order (); spatial = fill [] };
          { M.temporal = fill [ ("K", 8 / k1); ("C", 8 / c1); ("P", 8 / p1) ]; order = order (); spatial = fill [] };
          { M.temporal = fill []; order = order (); spatial = fill [] };
        ]
    in
    (w, m)
  in
  let big_arch = P.toy ~l1_words:100_000 ~l2_words:1_000_000 ~pes:4 () in
  [
    Test.make ~name:"energy positive and finite" ~count:200 (make gen_map) (fun inputs ->
        let w, m = build inputs in
        match Model.evaluate w big_arch m with
        | Ok c -> c.Model.energy_pj > 0.0 && Float.is_finite c.Model.edp
        | Error _ -> false);
    Test.make ~name:"macs invariant across mappings" ~count:200 (make gen_map) (fun inputs ->
        let w, m = build inputs in
        match Model.evaluate w big_arch m with
        | Ok c -> c.Model.macs = W.macs w
        | Error _ -> false);
    Test.make ~name:"reads bounded below by operand size" ~count:200 (make gen_map)
      (fun inputs ->
        let w, m = build inputs in
        match Model.evaluate w big_arch m with
        | Ok c ->
          (* DRAM must supply each input operand at least once *)
          List.for_all
            (fun (op : W.operand) ->
              let t =
                List.find
                  (fun (t : Model.transfer) ->
                    t.Model.operand = op.W.name && t.Model.from_level = 2 && t.Model.to_level >= 0)
                  c.Model.transfers
              in
              t.Model.reads >= W.operand_size w op -. 1e-6)
            (W.inputs w)
        | Error _ -> false);
    Test.make ~name:"lower bound below total energy" ~count:200 (make gen_map) (fun inputs ->
        let w, m = build inputs in
        match Model.evaluate w big_arch m with
        | Ok c ->
          List.for_all
            (fun k ->
              let e, cycles = prefix_bounds w big_arch m ~k in
              e <= c.Model.energy_pj +. 1e-6 && cycles <= c.Model.cycles +. 1e-6)
            [ 0; 1; 2 ]
        | Error _ -> false);
  ]

module Mapspace = Sun_search.Mapspace

(* ------------------------------------------------------------------ *)
(* The paper's principles as executable properties                      *)
(* ------------------------------------------------------------------ *)

(* Tiling Principle: for a fixed L2 ordering that reuses OP across L1
   tiles, enlarging an indexing dimension of OP in the L1 tile (while it
   still fits) never increases the total L2 access count. *)
let test_tiling_principle_monotone () =
  let big = P.toy ~l1_words:100_000 ~l2_words:1_000_000 ~pes:4 () in
  let build kl1 pl1 =
    M.make_exn conv
      [
        lm [ ("K", kl1); ("P", pl1); ("C", cl1); ("R", r) ];
        lm
          ~order:[ "P"; "K"; "C"; "R" ]
          [ ("K", kl1 * kl2 * cl1 / (kl1 * cl1)); ("P", pl1 * pl2 * 7 / (pl1 * 7)) ];
        lm
          [
            ("K", kl1 * kl2 / kl1 / (kl2 * cl1 / cl1));
            ("C", cl2);
          ];
      ]
  in
  ignore build;
  (* direct comparison on the running example: P_L1 = 7 vs P_L1 = 14 *)
  let total_l2_reads m =
    let cost = Model.evaluate_exn conv big m in
    Sun_util.Listx.sum_by
      (fun (t : Model.transfer) ->
        if t.Model.from_level = 1 && t.Model.to_level = 0 then t.Model.reads else 0.0)
      cost.Model.transfers
  in
  let small_tile =
    M.make_exn conv
      [
        lm [ ("K", kl1); ("P", pl1); ("C", cl1); ("R", r) ];
        lm ~order:[ "P"; "K"; "C"; "R" ] [ ("K", kl2); ("P", pl2); ("C", cl2) ];
        lm [];
      ]
  in
  let bigger_tile =
    (* grow P (an indexing dim of the reused ofmap) in the L1 tile *)
    M.make_exn conv
      [
        lm [ ("K", kl1); ("P", pl1 * pl2); ("C", cl1); ("R", r) ];
        lm ~order:[ "P"; "K"; "C"; "R" ] [ ("K", kl2); ("C", cl2) ];
        lm [];
      ]
  in
  Alcotest.(check bool) "bigger reuse-dim tile, fewer L2 accesses" true
    (total_l2_reads bigger_tile <= total_l2_reads small_tile +. 1e-6)

(* Ordering Principle 3: permuting the loops ABOVE the reuse-determining
   suffix changes no access count. *)
let test_ordering_principle_3 () =
  let build order =
    M.make_exn conv
      [
        lm [ ("K", kl1); ("P", pl1); ("C", cl1); ("R", r) ];
        lm ~order [ ("K", kl2); ("P", pl2); ("C", cl2) ];
        lm [];
      ]
  in
  (* C innermost (reuses ofmap); K and P above it in either order *)
  let a = Model.evaluate_exn conv arch (build [ "R"; "P"; "K"; "C" ]) in
  let b = Model.evaluate_exn conv arch (build [ "R"; "K"; "P"; "C" ]) in
  check_f "energy unchanged by outer permutation" a.Model.energy_pj b.Model.energy_pj

(* context-based and one-shot evaluation agree *)
let test_ctx_equivalence () =
  let ctx = Model.context conv arch in
  let direct = Model.evaluate_exn conv arch algorithm4 in
  match Model.evaluate_ctx ctx algorithm4 with
  | Ok via_ctx ->
    check_f "energy" direct.Model.energy_pj via_ctx.Model.energy_pj;
    check_f "cycles" direct.Model.cycles via_ctx.Model.cycles;
    check_f "edp" direct.Model.edp via_ctx.Model.edp
  | Error e -> Alcotest.failf "ctx path failed: %s" e

(* The capacity predicate's fill of [level] at mapping [m]'s cumulative
   tile extents. *)
let fill_at w arch m ~level =
  let probe = Probe.create w in
  let ext = Probe.extents probe in
  List.iteri (fun i d -> ext.(i) <- M.tile_at m ~level d) (W.dim_names w);
  Probe.fill probe (Probe.fit_table probe w arch ~binding:Fun.id) ~level ext

let test_fill_fraction () =
  let f = fill_at conv arch algorithm4 ~level:0 in
  (* Algorithm 4's L1 tile: 14 + 12 + 18 = 44 of 64 words *)
  check_f "L1 fill fraction" (44.0 /. 64.0) f

(* The fill of an unbounded top level still reads its partitions: over a
   DRAM given a capacity, every operand is whole there. *)
let test_fill_fraction_top () =
  let top = A.num_levels arch - 1 in
  let dram = A.level arch top in
  let capacity = 1_000_000 in
  let sized =
    A.make ~name:"toy-sized-dram"
      ~levels:
        (List.init top (A.level arch)
        @ [
            {
              dram with
              A.partitions =
                List.map (fun p -> { p with A.capacity_words = capacity }) dram.A.partitions;
            };
          ])
      ~mac_energy:arch.A.mac_energy ()
  in
  let whole =
    List.fold_left (fun acc op -> acc +. W.footprint (W.bound conv) op) 0.0 conv.W.operands
  in
  check_f "DRAM fill fraction" (whole /. float_of_int capacity)
    (fill_at conv sized algorithm4 ~level:top)

let principle_props =
  let open QCheck in
  let big = P.toy ~l1_words:1_000_000 ~l2_words:10_000_000 ~pes:8 () in
  [
    Test.make ~name:"outer-loop permutations never change energy" ~count:80
      (int_range 0 100000)
      (fun seed ->
        let w = C.conv1d ~k:8 ~c:4 ~p:12 ~r:3 () in
        let rng = Sun_util.Rng.create seed in
        let dims = [ "K"; "C"; "P"; "R" ] in
        let fill assoc =
          List.map
            (fun d -> match List.assoc_opt d assoc with Some f -> (d, f) | None -> (d, 1))
            dims
        in
        (* fixed innermost pair (C then R reused by ofmap); shuffle outers *)
        let outer = Sun_util.Rng.shuffle rng [ "K"; "P" ] in
        let build o =
          M.make_exn w
            [
              { M.temporal = fill [ ("K", 2); ("P", 3); ("R", 3) ]; order = dims; spatial = fill [] };
              { M.temporal = fill [ ("K", 4); ("P", 4); ("C", 4) ]; order = o @ [ "C"; "R" ]; spatial = fill [] };
              { M.temporal = fill []; order = dims; spatial = fill [] };
            ]
        in
        let a = Model.evaluate_exn w big (build outer) in
        let b = Model.evaluate_exn w big (build (List.rev outer)) in
        Float.abs (a.Model.energy_pj -. b.Model.energy_pj) < 1e-6);
    Test.make ~name:"ctx evaluation equals one-shot evaluation" ~count:80 (int_range 0 100000)
      (fun seed ->
        let w = C.conv1d ~k:8 ~c:8 ~p:8 ~r:3 () in
        let space = Mapspace.create w big in
        let m = Mapspace.sample space (Sun_util.Rng.create seed) in
        let ctx = Model.context w big in
        match (Model.evaluate w big m, Model.evaluate_ctx ctx m) with
        | Ok a, Ok b -> Float.abs (a.Model.edp -. b.Model.edp) < 1e-6
        | Error _, Error _ -> true
        | _ -> false);
  ]

let () =
  Alcotest.run "sun_cost"
    [
      ( "paper equations",
        [
          Alcotest.test_case "equations 1-3" `Quick test_equations_1_to_3;
          Alcotest.test_case "ordering principle 2" `Quick test_ordering_principle_2;
          Alcotest.test_case "partial reuse" `Quick test_partial_reuse;
          Alcotest.test_case "equations 5-7" `Quick test_equations_5_to_7;
        ] );
      ( "validation",
        [
          Alcotest.test_case "capacity" `Quick test_validation_capacity;
          Alcotest.test_case "fanout" `Quick test_validation_fanout;
          Alcotest.test_case "level mismatch" `Quick test_level_mismatch;
        ] );
      ( "energy",
        [
          Alcotest.test_case "streaming is worst" `Quick test_streaming_baseline_worst;
          Alcotest.test_case "breakdown sums" `Quick test_breakdown_sums;
          Alcotest.test_case "lower bound" `Quick test_lower_bound;
          Alcotest.test_case "bypass chain (Simba L2)" `Quick test_bypass_chain;
        ] );
      ( "principles",
        [
          Alcotest.test_case "tiling principle monotone" `Quick test_tiling_principle_monotone;
          Alcotest.test_case "ordering principle 3" `Quick test_ordering_principle_3;
          Alcotest.test_case "ctx equivalence" `Quick test_ctx_equivalence;
          Alcotest.test_case "fill fraction" `Quick test_fill_fraction;
          Alcotest.test_case "fill fraction at the top level" `Quick test_fill_fraction_top;
        ] );
      ("principle properties", List.map QCheck_alcotest.to_alcotest principle_props);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
