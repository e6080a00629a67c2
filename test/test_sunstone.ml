module W = Sun_tensor.Workload
module C = Sun_tensor.Catalog
module P = Sun_arch.Presets
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Trie = Sun_core.Order_trie
module Tree = Sun_core.Tile_tree
module Unroll = Sun_core.Unroll
module Opt = Sun_core.Optimizer
module Mapspace = Sun_search.Mapspace

let conv1d = C.conv1d ~k:4 ~c:4 ~p:14 ~r:3 ()

(* ----------------------------- trie ------------------------------- *)

let find_suffix cands suffix =
  List.find_opt (fun c -> c.Trie.suffix = suffix) cands

let test_trie_fig4 () =
  let cands = Trie.candidates conv1d in
  (* xxCR (R innermost, then C): ofmap reused via both, ifmap partial.
     Fig 4 keeps it and prunes xxxC. *)
  (match find_suffix cands [ "R"; "C" ] with
  | Some c ->
    Alcotest.(check (list string)) "reuses ofmap" [ "ofmap" ] c.Trie.reused_operands;
    Alcotest.(check bool) "ifmap partial" true (List.mem ("ifmap", Trie.Partial) c.Trie.signature)
  | None -> Alcotest.fail "expected suffix [R;C] (the paper's xxCR) to survive");
  Alcotest.(check bool) "xxxC pruned (subsumed by xxCR)" true (find_suffix cands [ "C" ] = None);
  (* far fewer orders than 4! = 24 *)
  Alcotest.(check bool) "pruned hard" true (List.length cands <= 8);
  Alcotest.(check int) "unpruned count" 24 (Trie.all_orders_count conv1d)

let test_trie_orders_are_permutations () =
  List.iter
    (fun c ->
      Alcotest.(check (list string))
        "permutation"
        (List.sort String.compare (W.dim_names conv1d))
        (List.sort String.compare c.Trie.order))
    (Trie.candidates conv1d)

(* The bottom-up search drops duplicate candidates by order index, which
   holds only while no two trie leaves give the same order. *)
let test_trie_orders_distinct () =
  List.iter
    (fun (name, w) ->
      let orders = List.map (fun c -> c.Trie.order) (Trie.candidates w) in
      Alcotest.(check int)
        (name ^ ": distinct orders")
        (List.length orders)
        (List.length (List.sort_uniq compare orders)))
    (Sun_serve.Registry.workloads ())

let test_trie_signature_scan () =
  (* signature of [P] (innermost loop P): weight fully reused, ifmap
     partially (sliding), ofmap not (P indexes it) *)
  let s = Trie.suffix_signature conv1d [ "P" ] in
  Alcotest.(check bool) "weight full" true (List.mem ("weight", Trie.Full) s);
  Alcotest.(check bool) "ifmap partial" true (List.mem ("ifmap", Trie.Partial) s);
  Alcotest.(check bool) "no ofmap" true (not (List.mem_assoc "ofmap" s));
  (* [K] innermost: ifmap fully reused *)
  let s2 = Trie.suffix_signature conv1d [ "K" ] in
  Alcotest.(check bool) "ifmap full across K" true (List.mem ("ifmap", Trie.Full) s2)

let test_trie_matmul () =
  let mm = C.matmul ~m:8 ~n:8 ~k:8 () in
  let cands = Trie.candidates mm in
  (* each of the three operands can be the reused one *)
  let reused = List.concat_map (fun c -> c.Trie.reused_operands) cands in
  List.iter
    (fun op -> Alcotest.(check bool) (op ^ " coverable") true (List.mem op reused))
    [ "a"; "b"; "out" ];
  Alcotest.(check bool) "small" true (List.length cands <= 6)

let test_trie_covers_deeper_reuse () =
  (* MTTKRP: out[i,j] reused across both K and L; the trie must offer an
     order reusing it across both. *)
  let w = C.mttkrp ~i:4 ~j:4 ~k:4 ~l:4 () in
  let cands = Trie.candidates w in
  Alcotest.(check bool) "two-deep reduction suffix" true
    (List.exists
       (fun c ->
         List.sort String.compare c.Trie.suffix = [ "K"; "L" ]
         && List.mem "out" c.Trie.reused_operands)
       cands)

(* --------------------------- tile tree ---------------------------- *)

(* Fig 5: unified L1 of 8 entries, grow P and K for the xxCR ordering;
   the frontier is K=2, P=2 (footprint 8: ofmap 4 + weight 2 + ifmap 2). *)
let test_tile_tree_fig5 () =
  let fits v =
    let p = v.(0) and k = v.(1) in
    (* C = R = 1 tile: ofmap k*p, weight k, ifmap p *)
    (k * p) + k + p <= 8
  in
  let out = Tree.search ~table:(Tree.table ()) ~remaining:[| 14; 4 |] ~fits () in
  Alcotest.(check (list (array int))) "single frontier tile: P=2, K=2" [ [| 2; 2 |] ]
    out.Tree.frontier;
  Alcotest.(check bool) "explored counted" true (out.Tree.explored >= 4)

let test_tile_tree_root_too_big () =
  let out =
    Tree.search ~table:(Tree.table ()) ~remaining:[| 4 |] ~fits:(fun _ -> false) ()
  in
  Alcotest.(check int) "no candidates" 0 (List.length out.Tree.frontier)

let test_tile_tree_factors_divide () =
  let grow_dims = [ "A"; "B" ] in
  let remaining = function "A" -> 12 | "B" -> 9 | _ -> 1 in
  let fits a = Tree.factor_of a "A" * Tree.factor_of a "B" <= 10 in
  let out =
    Tree.search ~table:(Tree.table ()) ~remaining:[| 12; 9 |]
      ~fits:(fun v -> fits (Tree.assignment ~grow_dims v))
      ()
  in
  let frontier = List.map (Tree.assignment ~grow_dims) out.Tree.frontier in
  List.iter
    (fun tile ->
      Alcotest.(check bool) "A divides" true (12 mod Tree.factor_of tile "A" = 0);
      Alcotest.(check bool) "B divides" true (9 mod Tree.factor_of tile "B" = 0);
      Alcotest.(check bool) "fits" true (fits tile))
    frontier;
  (* frontier maximality: no grow step keeps it fitting *)
  List.iter
    (fun tile ->
      List.iter
        (fun d ->
          match Sun_util.Factor.next_divisor (remaining d) (Tree.factor_of tile d) with
          | Some f' ->
            let bigger = (d, f') :: List.remove_assoc d tile in
            Alcotest.(check bool) "maximal" false (fits bigger)
          | None -> ())
        grow_dims)
    frontier

(* A ladder keeps both 1 and the full extent, so fewer than two rungs is
   a caller error; two rungs are exactly those ends. *)
(* A scope is checked against each search, and a scope whose divisor
   lattice overflows an int (240 divisors per dim, 8 dims) leaves its
   searches to private tables with the same results. *)
let test_tile_tree_scope () =
  let table = Tree.table () in
  let rejects what scope remaining =
    match Tree.search ~scope ~table ~remaining ~fits:(fun _ -> true) () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "remaining 8 in a scope of 12" (Tree.scope [| 12; 12 |]) [| 8; 8 |];
  rejects "two grow dims in a one-dim scope" (Tree.scope [| 12 |]) [| 12; 12 |];
  let remaining = Array.make 8 720720 in
  let fits v = Array.fold_left ( + ) 0 v <= 1441440 in
  let scope = Tree.scope (Array.make 8 720720) in
  let alone = Tree.search ~max_steps:3 ~table ~remaining ~fits () in
  List.iter
    (fun round ->
      let out = Tree.search ~max_steps:3 ~scope ~table ~remaining ~fits () in
      Alcotest.(check (list (array int)))
        (Printf.sprintf "frontier, search %d" round)
        alone.Tree.frontier out.Tree.frontier;
      Alcotest.(check int) (Printf.sprintf "explored, search %d" round) alone.Tree.explored
        out.Tree.explored)
    [ 1; 2 ]

let test_tile_tree_max_steps_floor () =
  let table = Tree.table () in
  List.iter
    (fun max_steps ->
      match Tree.search ~max_steps ~table ~remaining:[| 8 |] ~fits:(fun _ -> true) () with
      | _ -> Alcotest.failf "max_steps %d accepted" max_steps
      | exception Invalid_argument _ -> ())
    [ 0; 1 ];
  let out = Tree.search ~max_steps:2 ~table ~remaining:[| 8 |] ~fits:(fun _ -> true) () in
  Alcotest.(check (list (array int))) "two rungs: 1 and the full extent" [ [| 8 |] ]
    out.Tree.frontier

(* A table builds each distinct (extent, max_steps) ladder once: later
   lookups return the very array the first built, and tile and unroll
   searches over the same extents build nothing more. *)
let test_table_builds_once () =
  let table = Tree.table () in
  let lookups = [ (720, 20); (720, 24); (64, 20); (720, 20); (7, 20); (64, 20); (720, 24) ] in
  let first = List.map (fun (e, m) -> Tree.rungs table ~max_steps:m e) lookups in
  Alcotest.(check int) "distinct pairs built" 4 (Tree.built table);
  List.iter2
    (fun (e, m) rungs ->
      Alcotest.(check bool)
        (Printf.sprintf "ladder %d/%d shared" e m)
        true
        (Tree.rungs table ~max_steps:m e == rungs))
    lookups first;
  ignore (Tree.search ~max_steps:20 ~table ~remaining:[| 720; 64; 7 |] ~fits:(fun _ -> true) ());
  ignore (Unroll.candidates ~table ~fanout:16 ~remaining:[| 720; 720 |] ());
  Alcotest.(check int) "searches reuse the built ladders" 4 (Tree.built table)

(* ---------------------------- unroll ------------------------------ *)

let test_unroll_maximal () =
  let out =
    Unroll.candidates ~table:(Tree.table ()) ~fanout:16 ~remaining:[| 8; 14 |] ()
  in
  List.iter
    (fun a -> Alcotest.(check bool) "within fanout" true (Array.fold_left ( * ) 1 a <= 16))
    out.Unroll.candidates;
  (* K=8,P=2 is maximal and must be present *)
  Alcotest.(check bool) "K8 P2 found" true (List.mem [| 8; 2 |] out.Unroll.candidates)

let test_unroll_fanout_one () =
  let out = Unroll.candidates ~table:(Tree.table ()) ~fanout:1 ~remaining:[| 8 |] () in
  Alcotest.(check int) "single trivial candidate" 1 (List.length out.Unroll.candidates)

let test_unroll_min_utilization () =
  let out =
    Unroll.candidates ~table:(Tree.table ()) ~fanout:16 ~remaining:[| 4 |] ~min_utilization:0.5
      ()
  in
  (* best possible is 4/16 = 25% < 50%: the maximal assignment is still
     returned as the best available spatial reuse *)
  Alcotest.(check (list (array int))) "fallback" [ [| 4 |] ] out.Unroll.candidates

(* --------------------------- optimizer ---------------------------- *)

let toy = P.toy ~l1_words:64 ~l2_words:512 ~pes:4 ()

let test_optimizer_finds_valid () =
  match Opt.optimize conv1d toy with
  | Error msg -> Alcotest.failf "optimizer failed: %s" msg
  | Ok r ->
    (match Model.validate conv1d toy r.Opt.mapping with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "returned invalid mapping: %s" msg);
    Alcotest.(check bool) "examined counted" true (r.Opt.stats.Opt.examined > 0);
    Alcotest.(check bool) "evaluated counted" true (r.Opt.stats.Opt.evaluated > 0);
    Alcotest.(check int) "no build errors on a natural search" 0 r.Opt.stats.Opt.build_errors

(* Regression: the optimizer's score used to swallow Mapping.make failures
   silently. An injected corruption of the first scored candidate (its
   first temporal factor is doubled, breaking exact dimension coverage)
   must surface in stats.build_errors while the search still succeeds on
   the remaining candidates. *)
let test_optimizer_counts_build_errors () =
  match Opt.optimize ~inject:Opt.Corrupt_first_build conv1d toy with
  | Error msg -> Alcotest.failf "search should survive one corrupt candidate: %s" msg
  | Ok r ->
    Alcotest.(check bool) "injected build failure counted" true
      (r.Opt.stats.Opt.build_errors >= 1);
    (match Model.validate conv1d toy r.Opt.mapping with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "returned invalid mapping: %s" msg);
    (* and the same count is visible through telemetry when it is enabled *)
    let module Tel = Sun_telemetry.Metrics in
    Tel.set_enabled true;
    Tel.reset ();
    Fun.protect
      ~finally:(fun () ->
        Tel.reset ();
        Tel.set_enabled false)
      (fun () ->
        (match Opt.optimize ~inject:Opt.Corrupt_first_build conv1d toy with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "telemetry-enabled search failed: %s" msg);
        let snap = Tel.snapshot () in
        match List.assoc_opt "optimizer.build_errors" snap.Tel.s_counters with
        | Some n -> Alcotest.(check bool) "optimizer.build_errors >= 1" true (n >= 1)
        | None -> Alcotest.fail "optimizer.build_errors missing from telemetry")

(* Ground truth: on a tiny problem Sunstone must match the exhaustive
   optimum over the full (order x tile x unroll) space. *)
let test_optimizer_matches_exhaustive () =
  let w = C.matmul ~m:4 ~n:4 ~k:4 () in
  let arch = P.toy ~l1_words:12 ~l2_words:48 ~pes:4 () in
  let space = Mapspace.create w arch in
  let best_exhaustive =
    Seq.fold_left
      (fun best m ->
        match Model.evaluate w arch m with
        | Ok c -> Float.min best c.Model.edp
        | Error _ -> best)
      Float.infinity (Mapspace.enumerate space)
  in
  match Opt.optimize ~config:{ Opt.default_config with min_spatial_utilization = 0.0 } w arch with
  | Error msg -> Alcotest.failf "optimizer failed: %s" msg
  | Ok r ->
    Alcotest.(check bool)
      (Printf.sprintf "sunstone %.4g within 1.05x of optimum %.4g" r.Opt.cost.Model.edp
         best_exhaustive)
      true
      (r.Opt.cost.Model.edp <= best_exhaustive *. 1.05 +. 1e-9)

let test_optimizer_beats_naive () =
  match Opt.optimize conv1d toy with
  | Error msg -> Alcotest.failf "optimizer failed: %s" msg
  | Ok r ->
    let naive = M.single_level conv1d ~num_levels:3 in
    let naive_cost = Model.evaluate_exn conv1d toy naive in
    Alcotest.(check bool) "better than streaming" true
      (r.Opt.cost.Model.edp < naive_cost.Model.edp)

let test_optimizer_conv_conventional () =
  let layer = C.conv2d ~n:1 ~k:16 ~c:16 ~p:14 ~q:14 ~r:3 ~s:3 () in
  match Opt.optimize layer P.conventional with
  | Error msg -> Alcotest.failf "optimizer failed: %s" msg
  | Ok r -> (
    match Model.validate layer P.conventional r.Opt.mapping with
    | Ok () ->
      Alcotest.(check bool) "uses the PE array" true (M.total_spatial r.Opt.mapping > 1)
    | Error msg -> Alcotest.failf "invalid: %s" msg)

let test_optimizer_simba () =
  let layer = C.conv2d ~n:1 ~k:32 ~c:16 ~p:8 ~q:8 ~r:3 ~s:3 () in
  match Opt.optimize layer P.simba_like with
  | Error msg -> Alcotest.failf "optimizer failed: %s" msg
  | Ok r -> (
    match Model.validate layer P.simba_like r.Opt.mapping with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "invalid: %s" msg)

let test_optimizer_non_dnn () =
  List.iter
    (fun (name, w) ->
      match Opt.optimize w P.conventional with
      | Error msg -> Alcotest.failf "%s failed: %s" name msg
      | Ok r -> (
        match Model.validate w P.conventional r.Opt.mapping with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s invalid: %s" name msg))
    [
      ("mttkrp", C.mttkrp ~i:64 ~j:32 ~k:16 ~l:16 ());
      ("ttmc", C.ttmc ~i:32 ~j:16 ~k:16 ~l:8 ~m:8 ());
      ("sddmm", C.sddmm ~i:64 ~j:64 ~k:32 ());
    ]

let test_top_down_works () =
  let cfg = { Opt.default_config with Opt.direction = Opt.Top_down; beam_width = 16 } in
  match Opt.optimize ~config:cfg conv1d toy with
  | Error msg -> Alcotest.failf "top-down failed: %s" msg
  | Ok r -> (
    match Model.validate conv1d toy r.Opt.mapping with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "top-down invalid: %s" msg)

(* Warm-started search: a legal seed can only help, an illegal one must
   leave the search exactly as unseeded. *)
let test_optimizer_seeded () =
  let unseeded =
    match Opt.optimize conv1d toy with
    | Ok r -> r
    | Error msg -> Alcotest.failf "unseeded optimize failed: %s" msg
  in
  (* the unseeded winner itself as seed: trivially legal, so the seeded
     search must end at the same EDP (it starts from the optimum) *)
  let seed = Array.to_list unseeded.Opt.mapping.M.levels in
  (match Opt.optimize ~seed conv1d toy with
  | Error msg -> Alcotest.failf "seeded optimize failed: %s" msg
  | Ok r ->
    Alcotest.(check bool)
      (Printf.sprintf "seeded EDP %.6g <= unseeded %.6g" r.Opt.cost.Model.edp
         unseeded.Opt.cost.Model.edp)
      true
      (r.Opt.cost.Model.edp <= unseeded.Opt.cost.Model.edp *. (1.0 +. 1e-9)));
  (* an illegal seed (per-dim products no longer cover the bounds) is
     dropped silently and the result is bit-identical with unseeded *)
  let garbage =
    List.map
      (fun (lm : M.level_mapping) ->
        { lm with M.temporal = List.map (fun (d, f) -> (d, f * 7)) lm.M.temporal })
      seed
  in
  match Opt.optimize ~seed:garbage conv1d toy with
  | Error msg -> Alcotest.failf "garbage-seeded optimize failed: %s" msg
  | Ok r ->
    Alcotest.(check string) "mapping identical to unseeded"
      (M.to_string unseeded.Opt.mapping) (M.to_string r.Opt.mapping);
    Alcotest.(check int) "evaluated identical to unseeded" unseeded.Opt.stats.Opt.evaluated
      r.Opt.stats.Opt.evaluated

(* A returned mapping lists every level's factors in workload dim order,
   however the search reached it: resnet18/conv1 on simba, where
   refinement accepts a move, and an unrefined conv1d search seeded with
   the refined winner, factor lists reversed, which no enumerated
   candidate displaces. *)
let test_factors_in_workload_order () =
  let optimize ?config ?seed w arch =
    match Opt.optimize ?config ?seed w arch with Ok r -> r | Error msg -> Alcotest.fail msg
  in
  let check name w (r : Opt.result) =
    let dims = W.dim_names w in
    Array.iteri
      (fun l (lm : M.level_mapping) ->
        let what kind = Printf.sprintf "%s: level %d %s factors" name l kind in
        Alcotest.(check (list string)) (what "temporal") dims (List.map fst lm.M.temporal);
        Alcotest.(check (list string)) (what "spatial") dims (List.map fst lm.M.spatial))
      r.Opt.mapping.M.levels
  in
  let conv1 =
    match Sun_serve.Registry.find_workload "resnet18/conv1" with
    | Ok w -> w
    | Error msg -> Alcotest.fail msg
  in
  check "resnet18/conv1" conv1 (optimize conv1 P.simba_like);
  let seed =
    List.map
      (fun (lm : M.level_mapping) ->
        { lm with M.temporal = List.rev lm.M.temporal; spatial = List.rev lm.M.spatial })
      (Array.to_list (optimize conv1d toy).Opt.mapping.M.levels)
  in
  check "seeded conv1d" conv1d
    (optimize ~config:{ Opt.default_config with Opt.refine = false } ~seed conv1d toy)

(* Alpha-beta fires on a cold search: the admissible prefix bounds cut
   hundreds of ResNet-18 conv3_x prefixes without changing the winner —
   the EDP bits are the ones the unpruned beam found. *)
let test_cold_alpha_beta_prunes () =
  let w =
    match Sun_serve.Registry.find_workload "resnet18/conv3_x" with
    | Ok w -> w
    | Error msg -> Alcotest.fail msg
  in
  match Opt.optimize w P.conventional with
  | Error msg -> Alcotest.failf "conv3_x failed: %s" msg
  | Ok r ->
    Alcotest.(check bool)
      (Printf.sprintf "pruned %d > 0" r.Opt.stats.Opt.pruned_alpha_beta)
      true
      (r.Opt.stats.Opt.pruned_alpha_beta > 0);
    Alcotest.(check string) "EDP bits (7.5157e13)" "0x1.116b635fc8189p+46"
      (Printf.sprintf "%h" r.Opt.cost.Model.edp)

(* Regression for the stale-snapshot refine bug: moves were generated
   against the mapping from the start of the refinement round even after a
   move was accepted, so a later move could divide a factor the earlier
   move had already shrunk — [Mapping.make] then failed and the failure was
   miscounted as a search build error. With per-move re-snapshotting and
   the divisibility pre-check, an uninjected search must never record a
   build error, refinement included. *)
let test_refine_no_build_errors () =
  List.iter
    (fun (name, w, arch) ->
      match Opt.optimize ~config:{ Opt.default_config with Opt.refine = true } w arch with
      | Error msg -> Alcotest.failf "%s failed: %s" name msg
      | Ok r -> Alcotest.(check int) (name ^ ": build_errors") 0 r.Opt.stats.Opt.build_errors)
    [
      ("conv1d/toy", conv1d, toy);
      ("conv2d/conventional", C.conv2d ~n:1 ~k:32 ~c:32 ~p:14 ~q:14 ~r:3 ~s:3 (), P.conventional);
      ("mttkrp/conventional", C.mttkrp ~i:64 ~j:32 ~k:16 ~l:16 (), P.conventional);
    ]

(* The search's counts and winner on cold layers, pinned: a tile-tree
   change that alters a frontier, its order or [explored], or a candidate
   bookkeeping change that drops a different set of duplicates, moves these
   counts or the EDP bits. The conventional row drops no duplicate
   candidate and prunes hundreds of prefixes by alpha-beta. On the mttkrp
   row no simba buffer holds an operand, so every tile lattice fits whole
   and is counted whole in [examined]. No row may have a build error. The
   tile-fit column counts the buffer checks the tile searches made: a
   change to which points a search tests, or to which searches share a
   tiling scope, moves it without moving the rest of the row. The
   shared-verdict column counts the bottom-up candidates whose outcome
   was replayed from their group: a change to which candidates share a
   verdict moves it, and the rest of the row only if the sharing was
   wrong. With [~seed_from] each row is a warm search, seeded with the
   winner of a cold search of the same layer under that configuration. *)
let check_counts_pinned ?(config = Opt.default_config) ?seed_from rows =
  List.iter
    (fun (name, arch, examined, evaluated, pruned, eval_errors, tile_fit_tests, shared, edp_bits) ->
      let w =
        match Sun_serve.Registry.find_workload name with
        | Ok w -> w
        | Error msg -> Alcotest.fail msg
      in
      let seed =
        Option.map
          (fun config ->
            match Opt.optimize ~config w arch with
            | Ok r -> Array.to_list r.Opt.mapping.M.levels
            | Error msg -> Alcotest.failf "%s seed search failed: %s" name msg)
          seed_from
      in
      match Opt.optimize ~config ?seed w arch with
      | Error msg -> Alcotest.failf "%s failed: %s" name msg
      | Ok r ->
        let s = r.Opt.stats in
        Alcotest.(check int) (name ^ ": examined") examined s.Opt.examined;
        Alcotest.(check int) (name ^ ": evaluated") evaluated s.Opt.evaluated;
        Alcotest.(check int) (name ^ ": pruned_alpha_beta") pruned s.Opt.pruned_alpha_beta;
        Alcotest.(check int) (name ^ ": build_errors") 0 s.Opt.build_errors;
        Alcotest.(check int) (name ^ ": eval_errors") eval_errors s.Opt.eval_errors;
        Alcotest.(check int) (name ^ ": tile_fit_tests") tile_fit_tests s.Opt.tile_fit_tests;
        Alcotest.(check int) (name ^ ": shared_verdicts") shared s.Opt.shared_verdicts;
        Alcotest.(check int64) (name ^ ": EDP bits") edp_bits
          (Int64.bits_of_float r.Opt.cost.Model.edp))
    rows

let test_search_counts_pinned () =
  check_counts_pinned
    [
      ("resnet18/conv5_x", P.simba_like, 5290, 799, 108, 14, 1274, 334, 0x42d5dd361cc82342L);
      ("sddmm/cant", P.simba_like, 8533, 131, 12, 0, 106, 12, 0x4524feb5d88f0380L);
      ("mttkrp/poisson1", P.simba_like, 693984, 1024, 0, 0, 656, 536, 0x44f28447a0000000L);
      ("resnet18/conv4_x", P.conventional, 4931, 236, 341, 8, 596, 41, 0x42d342cebd032a45L);
    ]

(* The same pin for the paths the default configuration does not take: a
   top-down search (its passes, energy-ranked beam and final lane split)
   and the two tile-before-unroll intra orders, all on simba, whose vector
   lanes add the innermost unrolling pass. *)
let test_other_paths_counts_pinned () =
  let on intra = { Opt.default_config with Opt.intra } in
  check_counts_pinned
    ~config:{ Opt.default_config with Opt.direction = Opt.Top_down }
    [ ("resnet18/conv5_x", P.simba_like, 130327, 3480, 0, 6, 2172, 0, 0x42dd89738756e948L) ];
  check_counts_pinned ~config:(on Opt.Ordering_first)
    [
      ("resnet18/conv4_x", P.simba_like, 2848, 699, 112, 35, 1329, 272, 0x42be3c1af0d3949cL);
      ("sddmm/cant", P.simba_like, 4600, 121, 6, 0, 88, 12, 0x456d01731d3a8a2aL);
      ("mttkrp/netflix", P.simba_like, 83409, 414, 65, 0, 183, 189, 0x467159f2fdf6cbaaL);
    ];
  check_counts_pinned ~config:(on Opt.Tiling_first)
    [ ("resnet18/conv3_x", P.simba_like, 5335, 1163, 42, 75, 2763, 463, 0x42c9001a799ed6d6L) ]

(* The seeded fork's two heuristics, pinned. Seeded with its own cold
   winner, conv4_x keeps the seed as incumbent through every pass, so the
   enumeration's best gets the second refinement. Seeded with the winner
   of a beam-1 unrefined search, conv5_x displaces the seed early, and
   the pruning margin then cuts prefixes the exact test would keep. *)
let test_warm_counts_pinned () =
  check_counts_pinned ~seed_from:Opt.default_config
    [ ("resnet18/conv4_x", P.conventional, 5160, 260, 355, 12, 614, 33, 0x42d342cebd032a45L) ];
  check_counts_pinned
    ~seed_from:{ Opt.default_config with Opt.beam_width = 1; refine = false }
    [ ("resnet18/conv5_x", P.simba_like, 5377, 283, 624, 6, 1298, 86, 0x42d5dd361cc82342L) ]

(* Table VI: the intra-level optimization order barely affects mapping
   quality on realistic layers (tiles cannot saturate the large channel
   dimensions, so every variant reaches comparable unrollings). *)
let test_intra_orders_same_quality () =
  let layer = C.conv2d ~n:1 ~k:64 ~c:64 ~p:14 ~q:14 ~r:3 ~s:3 () in
  let run intra =
    match Opt.optimize ~config:{ Opt.default_config with Opt.intra } layer P.conventional with
    | Ok r -> r.Opt.cost.Model.edp
    | Error msg -> Alcotest.failf "intra variant failed: %s" msg
  in
  let a = run Opt.Ordering_first in
  let b = run Opt.Tiling_first in
  let c = run Opt.Unrolling_first in
  let best = Float.min a (Float.min b c) in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s within 1.3x of best (%.3g vs %.3g)" name v best)
        true
        (v <= best *. 1.3))
    [ ("ordering-first", a); ("tiling-first", b); ("unrolling-first", c) ]

(* The buffer-shaped fit test of the random tiling trees below: a sum of
   per-operand products of factors within a capacity. *)
let footprint operands factors =
  List.fold_left
    (fun acc op -> acc + List.fold_left ( * ) 1 (List.filteri (fun i _ -> List.nth op i) factors))
    0 operands

(* Random tiling trees: 1-7 grow dims with random extents, a random ladder
   thinning, and a monotone fit test shaped like a buffer check. The last
   operand spans every dim, so the capacity bounds the whole lattice walk.
   One case in five has room for the top corner, where every tile fits;
   its ladders are thinned to at most four rungs to keep the reference
   walk over the whole lattice short. In one case in three the extent
   with the most divisors moves to the first dim, so the sweep's line
   dim, the one with the longest ladder, is not the last grow dim. *)
let tile_tree_case =
  let open QCheck.Gen in
  let extents = [| 1; 2; 3; 4; 6; 8; 12; 16; 24; 30; 36; 48; 60; 64; 96; 120; 128; 720 |] in
  let* all_fit = frequency [ (4, return false); (1, return true) ] in
  let* n = 1 -- 7 in
  let* remaining = list_repeat n (map (fun i -> extents.(i)) (0 -- (Array.length extents - 1))) in
  let* longest_first = frequency [ (2, return false); (1, return true) ] in
  let remaining =
    if not longest_first then remaining
    else begin
      let divisors e = List.length (Sun_util.Factor.divisors e) in
      let longest = List.fold_left (fun a e -> if divisors e > divisors a then e else a) 1 remaining in
      let rec drop = function [] -> [] | e :: rest -> if e = longest then rest else e :: drop rest in
      longest :: drop remaining
    end
  in
  let* max_steps = if all_fit then 2 -- 4 else frequency [ (1, return max_int); (4, 2 -- 24) ] in
  let* operands = list_size (0 -- 2) (list_repeat n bool) in
  let operands = operands @ [ List.init n (fun _ -> true) ] in
  let corner = footprint operands remaining in
  let* capacity = if all_fit then corner -- (corner + 8) else 0 -- 400 in
  return (remaining, max_steps, operands, capacity)

let print_tile_tree_case (remaining, max_steps, operands, capacity) =
  Printf.sprintf "remaining=[%s] max_steps=%d operands=[%s] capacity=%d"
    (String.concat ";" (List.map string_of_int remaining))
    max_steps
    (String.concat ";"
       (List.map
          (fun op -> String.concat "" (List.map (fun b -> if b then "1" else "0") op))
          operands))
    capacity

(* The staircase search returns the reference walk's frontier, in the same
   order, with the same [explored]. It tests no lattice point twice, and
   makes at most one fit test (the top corner) more than the walk tests
   distinct points. *)
let prop_tile_tree_matches_reference (remaining, max_steps, operands, capacity) =
  let grow_dims = List.mapi (fun i _ -> Printf.sprintf "d%d" i) remaining in
  let remaining_of d = List.assoc d (List.combine grow_dims remaining) in
  let fits_factors factors = footprint operands factors <= capacity in
  let ref_tested = Hashtbl.create 64 in
  let ref_frontier, ref_explored =
    Tile_tree_ref.search ~max_steps ~grow_dims ~remaining:remaining_of
      ~fits:(fun a ->
        let point = List.map (Tile_tree_ref.factor_of a) grow_dims in
        Hashtbl.replace ref_tested point ();
        fits_factors point)
      ()
  in
  let tested = Hashtbl.create 64 and calls = ref 0 in
  let out =
    Tree.search ~max_steps ~table:(Tree.table ()) ~remaining:(Array.of_list remaining)
      ~fits:(fun v ->
        let point = Array.to_list v in
        incr calls;
        Hashtbl.replace tested point ();
        fits_factors point)
      ()
  in
  List.map (Tree.assignment ~grow_dims) out.Tree.frontier = ref_frontier
  && out.Tree.explored = ref_explored
  && !calls = Hashtbl.length tested
  && !calls <= Hashtbl.length ref_tested + 1

(* Several searches sharing one tiling scope: a random extent, a monotone
   buffer-shaped fit test, and per search a [remaining] vector of divisors
   of the extent with its own ladder thinning, often down to a few rungs. *)
let scoped_case =
  let open QCheck.Gen in
  let extents = [| 1; 2; 4; 6; 12; 16; 24; 36; 60; 64; 120; 720 |] in
  let* n = 1 -- 5 in
  let* extent = list_repeat n (oneofa extents) in
  let search =
    let* remaining =
      flatten_l (List.map (fun e -> oneofl (Sun_util.Factor.divisors e)) extent)
    in
    let* max_steps = frequency [ (1, return max_int); (3, 2 -- 6) ] in
    return (remaining, max_steps)
  in
  let* searches = list_size (2 -- 6) search in
  let* operands = list_size (0 -- 2) (list_repeat n bool) in
  let operands = operands @ [ List.init n (fun _ -> true) ] in
  let* capacity = 0 -- 400 in
  return (extent, searches, operands, capacity)

let print_scoped_case (extent, searches, operands, capacity) =
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "extent=[%s] searches=[%s] %s"
    (ints extent)
    (String.concat " "
       (List.map (fun (r, m) -> Printf.sprintf "([%s],%d)" (ints r) m) searches))
    (print_tile_tree_case (extent, 0, operands, capacity))

(* Each search in a scope, all sharing one lattice table, returns the
   reference walk's frontier, order and [explored], and the same outcome
   as the search alone with a fresh table; across the scope, [fits] runs
   at most once per distinct point, plus each search's root and corner
   tests. *)
let prop_scoped_matches_reference (extent, searches, operands, capacity) =
  let grow_dims = List.mapi (fun i _ -> Printf.sprintf "d%d" i) extent in
  let fits_factors factors = footprint operands factors <= capacity in
  let scope = Tree.scope (Array.of_list extent) and table = Tree.table () in
  let tested = Hashtbl.create 64 and calls = ref 0 in
  let fits v =
    let point = Array.to_list v in
    incr calls;
    Hashtbl.replace tested point ();
    fits_factors point
  in
  List.for_all
    (fun (remaining, max_steps) ->
      let remaining_of d = List.assoc d (List.combine grow_dims remaining) in
      let ref_frontier, ref_explored =
        Tile_tree_ref.search ~max_steps ~grow_dims ~remaining:remaining_of
          ~fits:(fun a -> fits_factors (List.map (Tile_tree_ref.factor_of a) grow_dims))
          ()
      in
      let remaining = Array.of_list remaining in
      let out = Tree.search ~max_steps ~scope ~table ~remaining ~fits () in
      let fresh =
        Tree.search ~max_steps ~table:(Tree.table ()) ~remaining
          ~fits:(fun v -> fits_factors (Array.to_list v))
          ()
      in
      List.map (Tree.assignment ~grow_dims) out.Tree.frontier = ref_frontier
      && out.Tree.explored = ref_explored
      && out = fresh)
    searches
  && !calls <= Hashtbl.length tested + (2 * List.length searches)

(* Lazy ranking against the stable sort it replaces: random keys drawn
   from a few values (so ties are common, NaN and infinity included),
   ranked over an ascending subset of the key positions (starred when
   printed). The first [m] pops are the stable sort's first [m] items,
   and popping past the end gives -1. *)
let ranking_case =
  let open QCheck.Gen in
  let* n = 0 -- 60 in
  let* key =
    array_repeat n (oneofl [ 0.5; 1.0; 1.0; 2.0; 3.5; 1e13; infinity; nan; -0.0; 0.0 ])
  in
  let* chosen = array_repeat n bool in
  let* m = 0 -- (n + 2) in
  return (key, chosen, m)

let print_ranking_case (key, chosen, m) =
  Printf.sprintf "keys=[%s] m=%d"
    (String.concat ";"
       (List.mapi
          (fun i k -> Printf.sprintf "%s%g" (if chosen.(i) then "*" else "") k)
          (Array.to_list key)))
    m

let prop_ranking_is_stable_sort (key, chosen, m) =
  let items =
    Array.of_list (List.filter (fun i -> chosen.(i)) (List.init (Array.length key) Fun.id))
  in
  let n = Array.length items in
  let sorted = Array.copy items in
  Array.stable_sort (fun a b -> Float.compare key.(a) key.(b)) sorted;
  let r = Sun_core.Ranking.create () in
  (* a larger earlier ranking leaves stale entries in the reused heap *)
  Sun_core.Ranking.start r (Array.make 80 0.0) (Array.init 80 Fun.id) 80;
  Sun_core.Ranking.start r key (Array.append items [| 0; 1; 2 |]) n;
  List.for_all
    (fun j ->
      let x = Sun_core.Ranking.pop r in
      x = if j < n then sorted.(j) else -1)
    (List.init m Fun.id)

(* Extents whose ladders differ most in shape: primes (two rungs), prime
   powers (every power a rung), highly composite numbers (the most
   divisors, so the most thinning), and any extent up to 10^6. *)
let ladder_extent =
  let open QCheck.Gen in
  let primes = [| 2; 3; 5; 7; 11; 13; 97; 101; 997; 7919; 65521; 104729; 999983 |] in
  let highly_composite =
    [| 1; 2; 4; 6; 12; 24; 36; 48; 60; 120; 180; 240; 360; 720; 840; 1260; 1680; 2520; 5040;
       7560; 10080; 15120; 20160; 25200; 27720; 45360; 50400; 55440; 83160; 110880; 166320;
       221760; 277200; 332640; 498960; 554400; 665280; 720720 |]
  in
  let prime_power =
    let* p = oneofl [ 2; 3; 5; 7; 11; 13 ] in
    let rec powers acc q = if q > 1_000_000 then acc else powers (q :: acc) (q * p) in
    oneofl (powers [] p)
  in
  oneof [ oneofa primes; prime_power; oneofa highly_composite; 1 -- 1_000_000 ]

(* Lookups of a shared table, every one asked twice in a row and the
   whole run asked again: each returns [ladder ~max_steps extent], a
   repeated lookup the same array, and the table builds one ladder per
   distinct pair. *)
let prop_table_matches_ladder lookups =
  let table = Tree.table () in
  let check (e, m) =
    let rungs = Tree.rungs table ~max_steps:m e in
    Array.to_list rungs = Tree.ladder ~max_steps:m e && Tree.rungs table ~max_steps:m e == rungs
  in
  List.for_all check lookups
  && List.for_all check lookups
  && Tree.built table = List.length (List.sort_uniq compare lookups)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"lazy ranking = stable sort" ~count:500
      (make ~print:print_ranking_case ranking_case)
      prop_ranking_is_stable_sort;
    Test.make ~name:"optimizer mappings always valid" ~count:25
      (make Gen.(tup4 (1 -- 4) (1 -- 4) (1 -- 4) (1 -- 3)))
      (fun (k2, c2, p2, r) ->
        let w = C.conv1d ~k:(2 * k2) ~c:(2 * c2) ~p:(4 * p2) ~r () in
        match Opt.optimize w toy with
        | Error _ -> true (* genuinely unmappable is acceptable *)
        | Ok res -> (
          match Model.validate w toy res.Opt.mapping with Ok () -> true | Error _ -> false));
    Test.make ~name:"trie candidates cover every operand's reuse" ~count:25
      (make Gen.(tup3 (2 -- 8) (2 -- 8) (2 -- 8)))
      (fun (m, n, k) ->
        let w = C.matmul ~m ~n ~k () in
        let cands = Trie.candidates w in
        let reused = List.concat_map (fun c -> c.Trie.reused_operands) cands in
        List.for_all (fun (op : W.operand) -> List.mem op.W.name reused) w.W.operands);
    Test.make ~name:"lattice table = ladder, built once per pair" ~count:200
      (make
         ~print:Print.(list (pair int int))
         Gen.(list_size (1 -- 12) (pair ladder_extent (2 -- 30))))
      prop_table_matches_ladder;
    Test.make ~name:"tile tree = reference walk, each point tested once" ~count:200
      (make ~print:print_tile_tree_case tile_tree_case)
      prop_tile_tree_matches_reference;
    Test.make ~name:"scoped tile searches = reference walk, shared verdicts" ~count:200
      (make ~print:print_scoped_case scoped_case)
      prop_scoped_matches_reference;
  ]

let () =
  Alcotest.run "sun_core"
    [
      ( "order trie",
        [
          Alcotest.test_case "fig 4 pruning" `Quick test_trie_fig4;
          Alcotest.test_case "orders are permutations" `Quick test_trie_orders_are_permutations;
          Alcotest.test_case "orders are distinct" `Quick test_trie_orders_distinct;
          Alcotest.test_case "signature scan" `Quick test_trie_signature_scan;
          Alcotest.test_case "matmul coverage" `Quick test_trie_matmul;
          Alcotest.test_case "deep reduction suffix" `Quick test_trie_covers_deeper_reuse;
        ] );
      ( "tile tree",
        [
          Alcotest.test_case "fig 5 frontier" `Quick test_tile_tree_fig5;
          Alcotest.test_case "root too big" `Quick test_tile_tree_root_too_big;
          Alcotest.test_case "divisibility and maximality" `Quick test_tile_tree_factors_divide;
          Alcotest.test_case "max_steps below two rejected" `Quick test_tile_tree_max_steps_floor;
          Alcotest.test_case "scope checks and overflow fallback" `Quick test_tile_tree_scope;
          Alcotest.test_case "table builds each ladder once" `Quick test_table_builds_once;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "maximal candidates" `Quick test_unroll_maximal;
          Alcotest.test_case "fanout one" `Quick test_unroll_fanout_one;
          Alcotest.test_case "min utilization fallback" `Quick test_unroll_min_utilization;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "finds valid mapping" `Quick test_optimizer_finds_valid;
          Alcotest.test_case "counts injected build errors" `Quick
            test_optimizer_counts_build_errors;
          Alcotest.test_case "matches exhaustive optimum" `Slow test_optimizer_matches_exhaustive;
          Alcotest.test_case "beats naive streaming" `Quick test_optimizer_beats_naive;
          Alcotest.test_case "conv on conventional" `Quick test_optimizer_conv_conventional;
          Alcotest.test_case "conv on simba" `Quick test_optimizer_simba;
          Alcotest.test_case "non-DNN workloads" `Quick test_optimizer_non_dnn;
          Alcotest.test_case "seeded search" `Quick test_optimizer_seeded;
          Alcotest.test_case "factors in workload order" `Quick test_factors_in_workload_order;
          Alcotest.test_case "cold alpha-beta prunes" `Quick test_cold_alpha_beta_prunes;
          Alcotest.test_case "refine produces no build errors" `Quick test_refine_no_build_errors;
          Alcotest.test_case "top-down variant" `Quick test_top_down_works;
          Alcotest.test_case "intra-level orders" `Quick test_intra_orders_same_quality;
          Alcotest.test_case "cold simba counts pinned" `Quick test_search_counts_pinned;
          Alcotest.test_case "top-down and intra-order counts pinned" `Quick
            test_other_paths_counts_pinned;
          Alcotest.test_case "warm counts pinned" `Quick test_warm_counts_pinned;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
