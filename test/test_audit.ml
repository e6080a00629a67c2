module W = Sun_tensor.Workload
module Opt = Sun_core.Optimizer
module D = Sun_analysis.Diagnostic
module Audit = Sun_analysis.Audit
module J = Sun_serve.Json
module Pipeline = Sun_serve.Pipeline
module Cache = Sun_serve.Cache

let ok = function Ok v -> v | Error m -> Alcotest.failf "unexpected error: %s" m
let has_code id diags = List.exists (fun (d : D.t) -> D.code_id d.D.code = id) diags

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let report_diags reports =
  List.concat_map (fun r -> r.Audit.diagnostics) reports

(* ------------------------------------------------------------------ *)
(* Differential oracle: golden constants                                *)
(* ------------------------------------------------------------------ *)

(* Pinned results of the full audit over the bundled kernel family:
   (kernel, orders kept by the trie, |dims|! orders audited, frontier
   points, mappings in the exhaustive oracle, exhaustive-best EDP).
   The counts are exact; the EDP is compared at 1e-9 relative. A change
   here must come with an explanation of which pruning or cost change
   moved it. *)
let golden =
  [
    ("sddmm-2x2x2", 3, 6, 4, 11448, 20495.448971425722);
    ("mmc-2x2x2x1", 8, 24, 4, 12096, 12286.621094475413);
    ("ttmc-2x2x2x1x1", 10, 120, 4, 11448, 13998.124604887564);
    ("conv1d-1x2x4x2", 4, 24, 5, 27000, 27759.110351621461);
    ("mttkrp-4x2x2x1", 7, 24, 4, 23112, 47791.526479675478);
  ]

let test_golden_differential () =
  let reports = Audit.check_kernels () in
  Alcotest.(check int) "kernel count" (List.length golden) (List.length reports);
  List.iter
    (fun (name, kept, total, frontier, mappings, edp) ->
      match List.find_opt (fun r -> r.Audit.kernel = name) reports with
      | None -> Alcotest.failf "kernel %s missing from audit" name
      | Some r ->
        Alcotest.(check (list string)) (name ^ " audits clean") []
          (List.map (fun (d : D.t) -> d.D.message) r.Audit.diagnostics);
        Alcotest.(check int) (name ^ " orders kept") kept r.Audit.orders_kept;
        Alcotest.(check int) (name ^ " orders total") total r.Audit.orders_total;
        Alcotest.(check int) (name ^ " frontier points") frontier r.Audit.frontier_checked;
        Alcotest.(check int) (name ^ " mappings enumerated") mappings
          r.Audit.mappings_enumerated;
        let rel x y = abs_float (x -. y) /. abs_float y in
        Alcotest.(check bool)
          (Printf.sprintf "%s exhaustive EDP matches golden (rel %.2e)" name
             (rel r.Audit.exhaustive_edp edp))
          true
          (rel r.Audit.exhaustive_edp edp <= 1e-9);
        Alcotest.(check bool)
          (Printf.sprintf "%s pruned best == exhaustive best (rel %.2e)" name
             (rel r.Audit.search_edp r.Audit.exhaustive_edp))
          true
          (rel r.Audit.search_edp r.Audit.exhaustive_edp <= 1e-9))
    golden

let test_inject_order () =
  let diags = report_diags (Audit.check_kernels ~inject:Audit.Drop_order_candidate ~limit:1 ()) in
  Alcotest.(check bool) "SA031 fires" true (has_code "SA031" diags);
  Alcotest.(check bool) "SA031 is an error" true (D.has_errors diags);
  (* the diagnostic carries the cost certificate *)
  Alcotest.(check bool) "certificate names the exhaustive best" true
    (List.exists
       (fun (d : D.t) ->
         D.code_id d.D.code = "SA031" && contains ~needle:"exhaustive best" d.D.message)
       diags)

let test_inject_frontier () =
  let diags = report_diags (Audit.check_kernels ~inject:Audit.Shrink_frontier ~limit:1 ()) in
  Alcotest.(check bool) "SA035 fires" true (has_code "SA035" diags);
  Alcotest.(check bool) "frontier loss is an error" true (D.has_errors diags)

(* 720 has 30 divisors, so the optimizer's 20-rung ladders drop some:
   the tiling oracle checks the thinned grid too, and a frontier point
   lost there is caught there. *)
let test_frontier_thinned_ladders () =
  let w = Sun_tensor.Catalog.matmul ~m:720 ~n:720 ~k:720 () in
  let a = Sun_arch.Presets.toy ~l1_words:64 () in
  let checked, diags = Audit.check_frontier w a in
  Alcotest.(check (list string)) "audits clean" [] (List.map (fun (d : D.t) -> d.D.message) diags);
  (* per operand: 13 maximal tiles on the full ladders, 9 on the thinned *)
  Alcotest.(check int) "frontier points, full and thinned ladders" (3 * (13 + 9)) checked;
  let _, diags = Audit.check_frontier ~inject:Audit.Shrink_frontier w a in
  Alcotest.(check bool) "SA035 fires on a thinned ladder" true
    (List.exists
       (fun (d : D.t) ->
         D.code_id d.D.code = "SA035" && contains ~needle:"(20-rung ladders)" d.D.message)
       diags)

(* ------------------------------------------------------------------ *)
(* Serve-side recheck                                                   *)
(* ------------------------------------------------------------------ *)

let conv1d =
  match Sun_serve.Registry.find_workload "conv1d" with
  | Ok w -> w
  | Error m -> Alcotest.failf "fixture: %s" m

let toy = Sun_arch.Presets.toy ()

let test_recheck_direct () =
  match Opt.optimize conv1d toy with
  | Error m -> Alcotest.failf "optimize: %s" m
  | Ok r ->
    let c = r.Opt.cost in
    let clean =
      Audit.recheck conv1d toy r.Opt.mapping
        ~claimed_energy:c.Sun_cost.Model.energy_pj ~claimed_edp:c.Sun_cost.Model.edp
    in
    Alcotest.(check (list string)) "honest claim passes" []
      (List.map (fun (d : D.t) -> d.D.message) clean);
    let drifted =
      Audit.recheck conv1d toy r.Opt.mapping
        ~claimed_energy:(c.Sun_cost.Model.energy_pj *. 2.0)
        ~claimed_edp:(c.Sun_cost.Model.edp *. 2.0)
    in
    Alcotest.(check bool) "doubled claim raises SA037" true (has_code "SA037" drifted);
    Alcotest.(check bool) "drift is an error" true (D.has_errors drifted)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let run_batch requests =
  let input = Filename.temp_file "sun_audit_in" ".jsonl" in
  let output = Filename.temp_file "sun_audit_out" ".jsonl" in
  write_lines input requests;
  let summary = Pipeline.run_files ~input ~output () in
  let responses = List.map (fun l -> ok (J.of_string l)) (read_lines output) in
  Sys.remove input;
  Sys.remove output;
  (summary, responses)

let test_pipeline_recheck_gate () =
  let summary, responses =
    run_batch
      [
        {|{"v":1,"id":"good","workload":"conv1d","arch":"toy"}|};
        {|{"v":1,"id":"bad","workload":"conv1d","arch":"toy","x-sunstone-test-corrupt-cost":true}|};
      ]
  in
  Alcotest.(check int) "two requests" 2 summary.Pipeline.requests;
  Alcotest.(check int) "one error" 1 summary.Pipeline.errors;
  (match responses with
  | [ good; bad ] ->
    Alcotest.(check string) "good computed" "computed"
      (ok (J.as_string (ok (J.field "status" good))));
    Alcotest.(check string) "bad rejected" "error"
      (ok (J.as_string (ok (J.field "status" bad))));
    let codes =
      match J.member "diagnostics" bad with
      | Some (J.List ds) ->
        List.map
          (fun d -> ok (J.as_string (ok (J.field "code" d))))
          ds
      | _ -> []
    in
    Alcotest.(check bool) "rejection carries SA037" true (List.mem "SA037" codes)
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs))

(* ------------------------------------------------------------------ *)
(* Unit lint: the energy rules the former Unitlint pass checked, now    *)
(* owned by [Arch.violations] (finite) and [Wellformed] (non-negative)  *)
(* ------------------------------------------------------------------ *)

module A = Sun_arch.Arch
module Wellformed = Sun_analysis.Wellformed

let set_level i f (a : A.t) =
  { a with A.levels = List.mapi (fun j l -> if j = i then f l else l) a.A.levels }

let set_partitions f (l : A.level) = { l with A.partitions = List.map f l.A.partitions }

let test_unitlint_presets_clean () =
  List.iter
    (fun (name, a) ->
      Alcotest.(check (list string)) (name ^ " lints clean") []
        (List.map (fun (d : D.t) -> d.D.message) (Wellformed.check_arch a));
      let es = A.energies a in
      Alcotest.(check bool) (name ^ " checked quantities") true (es <> []);
      List.iter
        (fun (e : A.energy) ->
          Alcotest.(check bool) (name ^ ": " ^ e.A.e_name ^ " finite, non-negative") true
            (Float.is_finite e.A.e_pj && e.A.e_pj >= 0.))
        es)
    Sun_arch.Presets.all

let test_unitlint_synthetic () =
  let remake (a : A.t) =
    A.make ~name:a.A.arch_name ~levels:a.A.levels ~mac_energy:a.A.mac_energy
      ~mac_throughput:a.A.mac_throughput ()
  in
  let nan_arch =
    set_level 0 (set_partitions (fun p -> { p with A.read_energy = Float.nan })) toy
  in
  Alcotest.(check bool) "NaN energy raises in make" true
    (match remake nan_arch with exception Invalid_argument _ -> true | _ -> false);
  let diags = Wellformed.check_arch nan_arch in
  Alcotest.(check bool) "NaN energy is an SA020 error" true
    (has_code "SA020" diags && D.has_errors diags);
  let inf_arch = { toy with A.mac_energy = Float.infinity } in
  Alcotest.(check bool) "infinite energy is an SA020 error" true
    (D.has_errors (Wellformed.check_arch inf_arch));
  let neg_arch =
    set_level 0 (set_partitions (fun p -> { p with A.write_energy = -1.0 })) toy
  in
  ignore (remake neg_arch);
  let diags = Wellformed.check_arch neg_arch in
  Alcotest.(check bool) "negative energy raises SA020" true (has_code "SA020" diags);
  (* a negative energy is the model's to accept: a warning, not an error *)
  Alcotest.(check bool) "negative energy is a warning" true (not (D.has_errors diags))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sun_audit"
    [
      ( "differential",
        [
          Alcotest.test_case "golden constants (all kernels)" `Slow test_golden_differential;
          Alcotest.test_case "order injection raises SA031" `Quick test_inject_order;
          Alcotest.test_case "frontier injection raises SA035" `Quick test_inject_frontier;
          Alcotest.test_case "frontier on thinned ladders" `Quick test_frontier_thinned_ladders;
        ] );
      ( "recheck",
        [
          Alcotest.test_case "direct recheck gate" `Quick test_recheck_direct;
          Alcotest.test_case "pipeline rejects corrupted cost" `Quick test_pipeline_recheck_gate;
        ] );
      ( "unitlint",
        [
          Alcotest.test_case "presets are clean" `Quick test_unitlint_presets_clean;
          Alcotest.test_case "synthetic faults" `Quick test_unitlint_synthetic;
        ] );
    ]
