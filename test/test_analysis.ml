module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module Opt = Sun_core.Optimizer
module D = Sun_analysis.Diagnostic
module Legality = Sun_analysis.Legality
module Wellformed = Sun_analysis.Wellformed
module Pruning = Sun_analysis.Pruning
module Adm = Sun_analysis.Admissibility
module Registry = Sun_serve.Registry

let conv1d =
  match Registry.find_workload "conv1d" with
  | Ok w -> w
  | Error m -> Alcotest.failf "fixture: %s" m

let toy = Sun_arch.Presets.toy ()

let has_code id diags = List.exists (fun (d : D.t) -> D.code_id d.D.code = id) diags

let check_codes what expected diags =
  List.iter
    (fun id -> Alcotest.(check bool) (Printf.sprintf "%s raises %s" what id) true (has_code id diags))
    expected

(* ------------------------------------------------------------------ *)
(* Diagnostics core                                                     *)
(* ------------------------------------------------------------------ *)

let test_code_table () =
  let table =
    [
      (D.Capacity_overflow, "SA001", "capacity-overflow");
      (D.Unroll_overflow, "SA002", "unroll-overflow");
      (D.Bad_coverage, "SA003", "bad-coverage");
      (D.Bad_order, "SA004", "bad-order");
      (D.Level_mismatch, "SA005", "level-mismatch");
      (D.Unknown_dim, "SA006", "unknown-dim");
      (D.Nonpositive_factor, "SA007", "nonpositive-factor");
      (D.Pruning_unsound, "SA010", "pruning-unsound");
      (D.Bound_overshoot, "SA011", "bound-overshoot");
      (D.Optimum_pruned, "SA012", "optimum-pruned");
      (D.Arch_malformed, "SA020", "arch-malformed");
      (D.Config_invalid, "SA021", "config-invalid");
      (D.Workload_malformed, "SA022", "workload-malformed");
      (D.Operand_unstored, "SA030", "operand-unstored");
      (D.Order_not_subsumed, "SA031", "order-not-subsumed");
      (D.Trie_incomplete, "SA032", "trie-incomplete");
      (D.Frontier_not_maximal, "SA033", "frontier-not-maximal");
      (D.Frontier_overflow, "SA034", "frontier-overflow");
      (D.Frontier_incomplete, "SA035", "frontier-incomplete");
      (D.Best_mismatch, "SA036", "pruned-best-mismatch");
      (D.Cost_drift, "SA037", "cost-drift");
      (D.Marshal_outside_pool, "SA040", "marshal-outside-pool");
      (D.Fork_outside_pool, "SA041", "fork-outside-pool");
      (D.Shared_channel_write, "SA042", "shared-channel-write");
      (D.Toplevel_mutable, "SA043", "toplevel-mutable-state");
      (D.Partial_function, "SA044", "partial-function");
      (D.Unit_nonfinite, "SA050", "unit-nonfinite");
      (D.Unit_negative, "SA051", "unit-negative");
      (D.Unit_implausible, "SA052", "unit-implausible");
      (D.Blocking_in_loop, "SA060", "blocking-in-event-loop");
      (D.Fd_leak, "SA061", "fd-leak");
      (D.Signal_unsafe, "SA062", "signal-handler-unsafe");
      (D.Nondeterminism, "SA063", "determinism-hazard");
      (D.Exception_swallowed, "SA064", "exception-swallowed");
      (D.Stale_suppression, "SA065", "stale-suppression");
    ]
  in
  List.iter
    (fun (code, id, name) ->
      Alcotest.(check string) ("id of " ^ name) id (D.code_id code);
      Alcotest.(check string) ("name of " ^ id) name (D.code_name code))
    table;
  (* the ids are pairwise distinct: scripts key on them *)
  let ids = List.map (fun (c, _, _) -> D.code_id c) table in
  Alcotest.(check int) "distinct ids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_rendering () =
  let d = D.error ~level:0 ~partition:"L1" D.Capacity_overflow "footprint 64 exceeds capacity 8" in
  let line = Format.asprintf "%a" D.pp d in
  Alcotest.(check bool) "has severity+id" true (contains ~needle:"error[SA001]" line);
  Alcotest.(check bool) "has slug" true (contains ~needle:"capacity-overflow" line);
  Alcotest.(check bool) "has location" true (contains ~needle:"level 0" line);
  Alcotest.(check bool) "has message" true (contains ~needle:"exceeds capacity" line);
  let mixed = [ d; D.warning D.Pruning_unsound "w"; D.info D.Config_invalid "i" ] in
  Alcotest.(check int) "errors filters" 1 (List.length (D.errors mixed));
  Alcotest.(check bool) "has_errors" true (D.has_errors mixed);
  Alcotest.(check bool) "summary mentions counts" true
    (contains ~needle:"1 error" (D.summary mixed))

let test_diagnostic_json () =
  let d = D.error ~level:1 ~dim:"K" D.Unroll_overflow "spatial product 8 exceeds fanout 4" in
  let j = Sun_serve.Codec.encode_diagnostic d in
  let get k = Sun_serve.Json.member k j in
  Alcotest.(check bool) "code" true (get "code" = Some (Sun_serve.Json.String "SA002"));
  Alcotest.(check bool) "severity" true (get "severity" = Some (Sun_serve.Json.String "error"));
  Alcotest.(check bool) "level" true (get "level" = Some (Sun_serve.Json.Int 1));
  Alcotest.(check bool) "dim" true (get "dim" = Some (Sun_serve.Json.String "K"));
  Alcotest.(check bool) "no operand key" true (get "operand" = None)

let test_diagnostic_roundtrip () =
  Alcotest.(check int) "code table is exhaustive" 40 (List.length D.all_codes);
  (* every code, every severity, assorted locations: decode ∘ encode = id *)
  List.iteri
    (fun i code ->
      let mk = match i mod 3 with 0 -> D.error | 1 -> D.warning | _ -> D.info in
      let d =
        match i mod 4 with
        | 0 -> mk code "plain"
        | 1 -> mk ~level:i ~dim:"K" code "with level and dim"
        | 2 -> mk ~operand:"weight" code "with operand"
        | _ -> mk ~level:0 ~partition:"L1" code "with partition"
      in
      match Sun_serve.Codec.decode_diagnostic (Sun_serve.Codec.encode_diagnostic d) with
      | Error m -> Alcotest.failf "%s does not decode: %s" (D.code_id code) m
      | Ok d' ->
        Alcotest.(check bool) (D.code_id code ^ " round-trips") true (d = d'))
    D.all_codes

(* ------------------------------------------------------------------ *)
(* Legality (pass 1)                                                    *)
(* ------------------------------------------------------------------ *)

let dims = W.dim_names conv1d
let ones = List.map (fun d -> (d, 1)) dims
let unit_level = { M.temporal = ones; order = dims; spatial = ones }
let top_level = { M.temporal = conv1d.W.dims; order = dims; spatial = ones }

let test_legal_mapping_clean () =
  (* everything streaming from DRAM is always legal *)
  let m = M.single_level conv1d ~num_levels:(A.num_levels toy) in
  Alcotest.(check (list string)) "single-level mapping clean" []
    (List.map (fun (d : D.t) -> d.D.message) (Legality.check conv1d toy m));
  (* so is whatever the optimizer returns *)
  match Opt.optimize conv1d toy with
  | Error m -> Alcotest.failf "optimize: %s" m
  | Ok r ->
    Alcotest.(check (list string)) "optimized mapping clean" []
      (List.map (fun (d : D.t) -> d.D.message) (Legality.check conv1d toy r.Opt.mapping))

let test_capacity_overflow () =
  (* the whole problem resident in the 8-word L1 *)
  let levels = [ top_level; unit_level; unit_level ] in
  let diags = Legality.check_all conv1d toy levels in
  check_codes "whole problem at L1" [ "SA001" ] diags;
  Alcotest.(check bool) "names the partition" true
    (List.exists (fun (d : D.t) -> d.D.where.D.partition = Some "L1") diags)

let test_unroll_overflow () =
  (* spatial K:4 below L1, whose fanout is 1 *)
  let spatial0 =
    { unit_level with M.spatial = List.map (fun d -> (d, if d = "K" then 4 else 1)) dims }
  in
  let top_no_k =
    {
      unit_level with
      M.temporal = List.map (fun (d, b) -> (d, if d = "K" then 1 else b)) conv1d.W.dims;
    }
  in
  let diags = Legality.check_all conv1d toy [ spatial0; unit_level; top_no_k ] in
  check_codes "overwide unroll" [ "SA002" ] diags

let test_structural_violations () =
  let missing_r =
    { unit_level with M.temporal = List.filter (fun (d, _) -> d <> "R") ones }
  in
  check_codes "missing dim" [ "SA003" ]
    (Legality.check_levels conv1d [ missing_r; unit_level; top_level ]);
  let unknown = { unit_level with M.temporal = ("Z", 2) :: ones } in
  check_codes "unknown dim" [ "SA006" ]
    (Legality.check_levels conv1d [ unknown; unit_level; top_level ]);
  let nonpos = { unit_level with M.temporal = List.map (fun d -> (d, if d = "K" then 0 else 1)) dims } in
  check_codes "nonpositive factor" [ "SA007" ]
    (Legality.check_levels conv1d [ nonpos; unit_level; top_level ]);
  let bad_order = { unit_level with M.order = List.map (fun _ -> List.hd dims) dims } in
  check_codes "duplicated order" [ "SA004" ]
    (Legality.check_levels conv1d [ bad_order; unit_level; top_level ]);
  (* all-unit factors never reach the workload bounds *)
  check_codes "underfactored" [ "SA003" ]
    (Legality.check_levels conv1d [ unit_level; unit_level; unit_level ]);
  check_codes "level count" [ "SA005" ]
    (Legality.check_levels ~arch:toy conv1d [ unit_level; top_level ])

(* ------------------------------------------------------------------ *)
(* Well-formedness (pass 4)                                             *)
(* ------------------------------------------------------------------ *)

let set_level i f (a : A.t) =
  { a with A.levels = List.mapi (fun j l -> if j = i then f l else l) a.A.levels }

let set_partitions f (l : A.level) = { l with A.partitions = List.map f l.A.partitions }

let test_arch_wellformed () =
  Alcotest.(check (list string)) "toy is clean" []
    (List.map (fun (d : D.t) -> d.D.message) (Wellformed.check_arch toy));
  check_codes "interior unbounded" [ "SA020" ]
    (Wellformed.check_arch (set_level 0 (fun l -> { l with A.unbounded = true }) toy));
  check_codes "bounded top" [ "SA020" ]
    (Wellformed.check_arch
       (set_level (A.num_levels toy - 1) (fun l -> { l with A.unbounded = false }) toy));
  check_codes "zero fanout" [ "SA020" ]
    (Wellformed.check_arch (set_level 1 (fun l -> { l with A.fanout = 0 }) toy));
  check_codes "zero capacity" [ "SA020" ]
    (Wellformed.check_arch
       (set_level 0 (set_partitions (fun p -> { p with A.capacity_words = 0 })) toy));
  check_codes "zero bandwidth" [ "SA020" ]
    (Wellformed.check_arch
       (set_level 0 (set_partitions (fun p -> { p with A.bandwidth = 0.0 })) toy))

let test_workload_wellformed () =
  List.iter
    (fun (name, w) ->
      Alcotest.(check (list string)) (name ^ " is clean") []
        (List.map (fun (d : D.t) -> d.D.message) (Wellformed.check_workload w)))
    (Registry.workloads ());
  let base = conv1d in
  check_codes "dup dim" [ "SA022" ]
    (Wellformed.check_workload { base with W.dims = ("K", 4) :: base.W.dims });
  check_codes "zero bound" [ "SA022" ]
    (Wellformed.check_workload
       { base with W.dims = List.map (fun (d, b) -> (d, if d = "P" then 0 else b)) base.W.dims });
  check_codes "no output" [ "SA022" ]
    (Wellformed.check_workload
       { base with W.operands = List.filter (fun (op : W.operand) -> op.W.kind = `Input) base.W.operands });
  let phantom =
    { W.name = "phantom"; kind = `Input; indices = [ W.Dim "Q" ] }
  in
  check_codes "unknown dim in operand" [ "SA006" ]
    (Wellformed.check_workload { base with W.operands = phantom :: base.W.operands });
  check_codes "unused dim" [ "SA022" ]
    (Wellformed.check_workload { base with W.dims = base.W.dims @ [ ("U", 2) ] })

let test_config_wellformed () =
  Alcotest.(check (list string)) "default config clean" []
    (List.map (fun (d : D.t) -> d.D.message) (Wellformed.check_config Opt.default_config));
  check_codes "zero beam" [ "SA021" ]
    (Wellformed.check_config { Opt.default_config with Opt.beam_width = 0 });
  check_codes "bad utilization" [ "SA021" ]
    (Wellformed.check_config { Opt.default_config with Opt.min_spatial_utilization = 1.5 })

let test_pair_wellformed () =
  Alcotest.(check (list string)) "conv1d on toy clean" []
    (List.map (fun (d : D.t) -> d.D.message) (Wellformed.check_pair conv1d toy));
  (* an architecture whose partitions only accept weights leaves ifmap and
     ofmap with no storage chain: this is the input that used to crash the
     cost model mid-batch *)
  let weight_only =
    { toy with A.levels = List.map (set_partitions (fun p -> { p with A.accepts = `Roles [ "weight" ] })) toy.A.levels }
  in
  let diags = Wellformed.check_pair conv1d weight_only in
  check_codes "weight-only arch" [ "SA030" ] diags;
  Alcotest.(check int) "two unstored operands" 2
    (List.length (List.filter (fun (d : D.t) -> d.D.code = D.Operand_unstored) diags));
  (* a 2-word L1 cannot hold even a unit tile of three operands *)
  let tiny = Sun_arch.Presets.toy ~l1_words:2 () in
  check_codes "unit tile overflow" [ "SA001" ] (Wellformed.check_pair conv1d tiny)

(* ------------------------------------------------------------------ *)
(* Pruning soundness (pass 2)                                           *)
(* ------------------------------------------------------------------ *)

let test_pruning_registry_clean () =
  let reports = Pruning.check_many (Registry.workloads ()) in
  Alcotest.(check bool) "covers the registry" true (List.length reports >= 30);
  List.iter
    (fun (r : Pruning.report) ->
      Alcotest.(check (list string)) (r.Pruning.workload ^ " sound") []
        (List.map (fun (d : D.t) -> d.D.message) r.Pruning.diagnostics);
      Alcotest.(check bool) (r.Pruning.workload ^ " emitted orderings") true (r.Pruning.orderings > 0))
    reports;
  (* the conv layers genuinely exercise the dropped-dim probe *)
  let conv = Pruning.check conv1d in
  Alcotest.(check bool) "conv1d probes dropped dims" true (conv.Pruning.dropped_dims_checked > 0)

(* ------------------------------------------------------------------ *)
(* Bound admissibility (pass 3)                                         *)
(* ------------------------------------------------------------------ *)

let test_admissibility_monotone () =
  let r = Adm.check_bound conv1d toy in
  Alcotest.(check (list string)) "bound chain clean" []
    (List.map (fun (d : D.t) -> d.D.message) r.Adm.diagnostics);
  Alcotest.(check bool) "checked samples" true (r.Adm.mappings_checked > 0)

let test_admissibility_differential () =
  let reports = Adm.check_suite () in
  Alcotest.(check bool) "at least three small workloads" true (List.length reports >= 3);
  List.iter
    (fun (r : Adm.report) ->
      Alcotest.(check (list string)) (r.Adm.workload ^ " admissible") []
        (List.map (fun (d : D.t) -> d.D.message) r.Adm.diagnostics);
      Alcotest.(check bool) (r.Adm.workload ^ " enumerated") true (r.Adm.mappings_checked > 100);
      let rel = abs_float (r.Adm.search_edp -. r.Adm.exhaustive_edp) /. r.Adm.exhaustive_edp in
      Alcotest.(check bool)
        (Printf.sprintf "%s search hits exhaustive optimum (rel %.2e)" r.Adm.workload rel)
        true (rel <= 1e-9);
      Alcotest.(check bool) (r.Adm.workload ^ " alpha-beta changes nothing") true
        (abs_float (r.Adm.search_edp -. r.Adm.no_prune_edp) /. r.Adm.exhaustive_edp <= 1e-9))
    reports

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sun_analysis"
    [
      ( "diagnostic",
        [
          Alcotest.test_case "stable code table" `Quick test_code_table;
          Alcotest.test_case "rendering" `Quick test_rendering;
          Alcotest.test_case "json encoding" `Quick test_diagnostic_json;
          Alcotest.test_case "json round-trip over all codes" `Quick test_diagnostic_roundtrip;
        ] );
      ( "legality",
        [
          Alcotest.test_case "legal mappings are clean" `Quick test_legal_mapping_clean;
          Alcotest.test_case "capacity overflow (SA001)" `Quick test_capacity_overflow;
          Alcotest.test_case "unroll overflow (SA002)" `Quick test_unroll_overflow;
          Alcotest.test_case "structural violations" `Quick test_structural_violations;
        ] );
      ( "wellformed",
        [
          Alcotest.test_case "architectures" `Quick test_arch_wellformed;
          Alcotest.test_case "workloads" `Quick test_workload_wellformed;
          Alcotest.test_case "configs" `Quick test_config_wellformed;
          Alcotest.test_case "workload-arch pairs" `Quick test_pair_wellformed;
        ] );
      ( "pruning",
        [ Alcotest.test_case "registry is sound" `Quick test_pruning_registry_clean ] );
      ( "admissibility",
        [
          Alcotest.test_case "bound monotone on samples" `Quick test_admissibility_monotone;
          Alcotest.test_case "differential vs exhaustive" `Slow test_admissibility_differential;
        ] );
    ]
