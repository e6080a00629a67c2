module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module Opt = Sun_core.Optimizer
module D = Sun_analysis.Diagnostic
module Legality = Sun_analysis.Legality
module Wellformed = Sun_analysis.Wellformed
module Pruning = Sun_analysis.Pruning
module Audit = Sun_analysis.Audit
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
      (D.Partial_function, "SA044", "partial-function");
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
  Alcotest.(check int) "code table is exhaustive" 27 (List.length D.all_codes);
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
  (* the location is the diagnostic's; only [Mapping.make] prefixes it *)
  Alcotest.(check (list string))
    "message carries no location" [ "temporal factor of K is 0" ]
    (List.map
       (fun (d : D.t) -> d.D.message)
       (Legality.check_levels conv1d [ nonpos; unit_level; top_level ]));
  Alcotest.(check (result reject string))
    "make prefixes the level" (Error "level 0: temporal factor of K is 0")
    (M.make conv1d [ nonpos; unit_level; top_level ]);
  let bad_order = { unit_level with M.order = List.map (fun _ -> List.hd dims) dims } in
  check_codes "duplicated order" [ "SA004" ]
    (Legality.check_levels conv1d [ bad_order; unit_level; top_level ]);
  (* all-unit factors never reach the workload bounds *)
  check_codes "underfactored" [ "SA003" ]
    (Legality.check_levels conv1d [ unit_level; unit_level; unit_level ]);
  check_codes "level count" [ "SA005" ]
    (Legality.check_levels ~arch:toy conv1d [ unit_level; top_level ])

(* The level-count rule (SA005) has one owner, the model's: the model
   and both legality checks reject the same mismatches, with one
   message, and accept the same match. *)
let test_level_count () =
  let n_toy = A.num_levels toy in
  let sa005 =
    List.filter_map (fun (d : D.t) ->
        if d.D.code = D.Level_mismatch then Some d.D.message else None)
  in
  List.iter
    (fun n ->
      let m = M.single_level conv1d ~num_levels:n in
      let what = Printf.sprintf "%d levels" n in
      let expected =
        if n = n_toy then []
        else [ Printf.sprintf "mapping has %d levels, architecture toy has %d" n n_toy ]
      in
      Alcotest.(check (list string)) (what ^ ": Model.validate") expected
        (match Sun_cost.Model.validate conv1d toy m with Ok () -> [] | Error msg -> [ msg ]);
      Alcotest.(check (list string)) (what ^ ": Legality.check") expected
        (sa005 (Legality.check conv1d toy m));
      Alcotest.(check (list string)) (what ^ ": Legality.check_levels") expected
        (sa005 (Legality.check_levels ~arch:toy conv1d (Array.to_list m.M.levels))))
    [ 1; 2; n_toy; n_toy + 1 ]

(* ------------------------------------------------------------------ *)
(* Well-formedness (pass 4)                                             *)
(* ------------------------------------------------------------------ *)

let set_level i f (a : A.t) =
  { a with A.levels = List.mapi (fun j l -> if j = i then f l else l) a.A.levels }

let set_partitions f (l : A.level) = { l with A.partitions = List.map f l.A.partitions }

let test_arch_wellformed () =
  List.iter
    (fun (name, a) ->
      Alcotest.(check (list string)) (name ^ " is clean") []
        (List.map (fun (d : D.t) -> d.D.message) (Wellformed.check_arch a)))
    (("toy", toy) :: Sun_arch.Presets.all);
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

let remake (a : A.t) =
  A.make ~name:a.A.arch_name ~levels:a.A.levels ~mac_energy:a.A.mac_energy
    ~mac_throughput:a.A.mac_throughput ()

(* The rules the cost model divides by or sums are [Arch]'s own: [make]
   raises, the codec refuses the document, and the checker renders the
   same message as SA020. JSON has no spelling for a non-finite number, so
   such an architecture cannot even be written as a document. *)
let test_arch_model_rules () =
  let nonfinite (a : A.t) =
    List.exists (fun (e : A.energy) -> not (Float.is_finite e.A.e_pj)) (A.energies a)
    || List.exists
         (fun (l : A.level) ->
           List.exists (fun (p : A.partition) -> Float.is_nan p.A.bandwidth) l.A.partitions)
         a.A.levels
  in
  List.iter
    (fun (what, (a : A.t), msg) ->
      (match remake a with
      | exception Invalid_argument e ->
        Alcotest.(check string) (what ^ ": make") ("Arch.make: " ^ msg) e
      | _ -> Alcotest.failf "%s: make accepts" what);
      (match Sun_serve.Codec.encode_arch a with
      | exception Invalid_argument _ when nonfinite a -> ()
      | doc -> (
        match Sun_serve.Codec.decode_arch doc with
        | Error e -> Alcotest.(check string) (what ^ ": decode") ("Arch.make: " ^ msg) e
        | Ok _ -> Alcotest.failf "%s: decode accepts" what));
      Alcotest.(check (list (pair string string)))
        (what ^ ": check") [ ("SA020", msg) ]
        (List.map
           (fun (d : D.t) -> (D.code_id d.D.code, d.D.message))
           (D.errors (Wellformed.check_arch a))))
    [
      ( "interior unbounded",
        set_level 0 (fun l -> { l with A.unbounded = true }) toy,
        "level L1 is unbounded but is not the outermost level" );
      ( "zero bandwidth",
        set_level 0 (set_partitions (fun p -> { p with A.bandwidth = 0.0 })) toy,
        "partition L1 has non-positive bandwidth 0" );
      ("zero MAC throughput", { toy with A.mac_throughput = 0 }, "mac_throughput 0 (must be >= 1)");
      ( "NaN bandwidth",
        set_level 0 (set_partitions (fun p -> { p with A.bandwidth = Float.nan })) toy,
        "partition L1 has non-positive bandwidth nan" );
      ( "NaN read energy",
        set_level 0 (set_partitions (fun p -> { p with A.read_energy = Float.nan })) toy,
        "read energy of partition L1 is not finite (nan)" );
      ( "infinite NoC hop energy",
        set_level 1 (fun l -> { l with A.noc_hop_energy = Float.infinity }) toy,
        "NoC hop energy of level L2 is not finite (inf)" );
      ("NaN MAC energy", { toy with A.mac_energy = Float.nan }, "MAC energy is not finite (nan)");
    ];
  (* A negative energy is the model's to accept: make and the codec take
     it, and the checker warns once per energy, the NoC hop included. *)
  let negative =
    set_level 0 (set_partitions (fun p -> { p with A.write_energy = -1.0 })) toy
    |> set_level 1 (fun l -> { l with A.noc_hop_energy = -0.5 })
    |> fun a -> { a with A.mac_energy = -2.0 }
  in
  ignore (remake negative);
  (match Sun_serve.Codec.decode_arch (Sun_serve.Codec.encode_arch negative) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "negative energies: decode refuses: %s" e);
  Alcotest.(check (list (pair string string)))
    "negative energies: one warning each"
    [
      ("SA020", "write energy of partition L1 is negative (-1)");
      ("SA020", "NoC hop energy of level L2 is negative (-0.5)");
      ("SA020", "MAC energy is negative (-2)");
    ]
    (List.map
       (fun (d : D.t) ->
         if d.D.severity <> D.Warning then Alcotest.failf "%s is not a warning" d.D.message;
         (D.code_id d.D.code, d.D.message))
       (Wellformed.check_arch negative))

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
(* Bound admissibility: the audit's bound chain on sampled mappings   *)
(* ------------------------------------------------------------------ *)

let test_admissibility_monotone () =
  let checked, diags = Audit.check_bound conv1d toy in
  Alcotest.(check (list string)) "bound chain clean" []
    (List.map (fun (d : D.t) -> d.D.message) diags);
  Alcotest.(check bool) "checked samples" true (checked > 0)

(* The kernels the old three-workload admissibility suite checked now run
   inside the audit family; the search must still reach their exhaustive
   optimum, with and without alpha-beta. *)
let test_admissibility_differential () =
  let reports = Audit.check_kernels () in
  List.iter
    (fun name ->
      match List.find_opt (fun (r : Audit.kernel_report) -> r.Audit.kernel = name) reports with
      | None -> Alcotest.failf "%s missing from the audit family" name
      | Some r ->
        Alcotest.(check (list string)) (name ^ " admissible") []
          (List.map (fun (d : D.t) -> d.D.message) r.Audit.diagnostics);
        Alcotest.(check bool) (name ^ " enumerated") true (r.Audit.mappings_enumerated > 100);
        let rel x = abs_float (x -. r.Audit.exhaustive_edp) /. r.Audit.exhaustive_edp in
        Alcotest.(check bool)
          (Printf.sprintf "%s search hits exhaustive optimum (rel %.2e)" name
             (rel r.Audit.search_edp))
          true
          (rel r.Audit.search_edp <= 1e-9);
        Alcotest.(check bool) (name ^ " alpha-beta changes nothing") true
          (abs_float (r.Audit.search_edp -. r.Audit.no_prune_edp) /. r.Audit.exhaustive_edp
          <= 1e-9))
    [ "matmul-4x4x2"; "mv-8x4"; "ttv-4x4x2" ]

(* ------------------------------------------------------------------ *)
(* One capacity predicate: legality, validation and the fit table agree *)
(* ------------------------------------------------------------------ *)

(* A random structurally valid mapping of [w] on [arch]: every prime
   factor of every dim goes to a random level, spatially one time in four,
   else temporally, at the top half the time so that many mappings fit;
   every order is a random permutation. One mapping in four may unroll
   past a fanout; the others keep each level's unrolling within it. *)
let random_mapping rng w arch =
  let nl = A.num_levels arch and dims = W.dim_names w in
  let temporal = Array.init nl (fun _ -> Hashtbl.create 8) in
  let spatial = Array.init nl (fun _ -> Hashtbl.create 8) in
  let unrolled = Array.make nl 1 in
  let may_overflow = Sun_util.Rng.int rng 4 = 0 in
  let bump tbl d p = Hashtbl.replace tbl d (p * Option.value ~default:1 (Hashtbl.find_opt tbl d)) in
  List.iter
    (fun d ->
      List.iter
        (fun (p, e) ->
          for _ = 1 to e do
            let l = Sun_util.Rng.int rng nl in
            if
              Sun_util.Rng.int rng 4 = 0
              && (may_overflow || unrolled.(l) * p <= (A.level arch l).A.fanout)
            then begin
              unrolled.(l) <- unrolled.(l) * p;
              bump spatial.(l) d p
            end
            else if Sun_util.Rng.bool rng then bump temporal.(nl - 1) d p
            else bump temporal.(l) d p
          done)
        (Sun_util.Factor.prime_factorization (W.bound w d)))
    dims;
  let row tbl = List.map (fun d -> (d, Option.value ~default:1 (Hashtbl.find_opt tbl d))) dims in
  M.make_exn w
    (List.init nl (fun l ->
         {
           M.temporal = row temporal.(l);
           order = Sun_util.Rng.shuffle rng dims;
           spatial = row spatial.(l);
         }))

(* [Legality.check] reports a capacity or unroll overflow exactly when
   [Model.validate] rejects; at every level it reports a capacity
   overflow exactly when [Probe.level_fits] fails at the level's
   cumulative extents; and a capacity rejection of the model names the
   first partition the fit table finds overflowing. *)
let capacity_agreement_props =
  let open QCheck in
  let module Model = Sun_cost.Model in
  let module Probe = Sun_cost.Probe in
  let workloads = Array.of_list (Registry.workloads ()) in
  List.map
    (fun arch_name ->
      let arch =
        match Registry.find_arch arch_name with Ok a -> a | Error m -> Alcotest.failf "%s" m
      in
      Test.make ~count:200
        ~name:(Printf.sprintf "legality = validate = fit table (%s)" arch_name)
        (make ~print:string_of_int Gen.(int_bound 1_000_000))
        (fun seed ->
          let rng = Sun_util.Rng.create seed in
          let wname, w = workloads.(Sun_util.Rng.int rng (Array.length workloads)) in
          let m = random_mapping rng w arch in
          let diags = Legality.check w arch m in
          let at code l =
            List.exists (fun (d : D.t) -> d.D.code = code && d.D.where.D.level = Some l) diags
          in
          let probe = Probe.create w in
          let fit = Probe.fit_table probe w arch ~binding:Fun.id in
          let ext = Probe.extents probe in
          let first = ref None in
          let levels_agree =
            List.for_all
              (fun l ->
                List.iteri (fun i d -> ext.(i) <- M.tile_at m ~level:l d) (W.dim_names w);
                let i = Probe.first_overflow probe fit ~level:l ext in
                if i >= 0 && !first = None then
                  first := Some fit.(l).Probe.parts.(i).Probe.part.A.part_name;
                Probe.level_fits probe fit ~level:l ext = not (at D.Capacity_overflow l)
                || Test.fail_reportf "%s level %d: fit table and legality disagree" wname l)
              (List.init (A.num_levels arch) Fun.id)
          in
          let unrolled =
            List.exists (fun l -> at D.Unroll_overflow l) (List.init (A.num_levels arch) Fun.id)
          in
          let legal = (not unrolled) && !first = None in
          let named p msg = String.starts_with ~prefix:("partition " ^ p ^ " at ") msg in
          levels_agree
          &&
          match (Model.validate w arch m, !first) with
          | Ok (), _ when legal -> true
          | Error _, _ when unrolled -> true
          | Error msg, Some p when named p msg -> true
          | Ok (), _ -> Test.fail_reportf "%s: model accepts what legality rejects" wname
          | Error msg, _ ->
            Test.fail_reportf "%s: model rejects (%s), legality does not" wname msg))
    [ "conventional"; "simba"; "toy" ]

(* ------------------------------------------------------------------ *)
(* One owner per rule: the checkers render the constructors' scans      *)
(* ------------------------------------------------------------------ *)

(* The toy L1 split into a 4-word partition for [a] and a 100-word one for
   [b] and [out]. Partitions are matched by name, so under one shared name
   both were charged all three operands, and a 2x2x2 matmul tile ([a] 4
   words, [b] + [out] 8) overflowed the 4-word one ("footprint 12 exceeds
   capacity 4"). The shared name is now a rule of [Arch]. *)
let test_duplicate_partition_names () =
  let matmul = Sun_tensor.Catalog.matmul ~m:4 ~n:4 ~k:4 () in
  let split second =
    set_level 0
      (fun l ->
        match l.A.partitions with
        | [ p ] ->
          {
            l with
            A.partitions =
              [
                { p with A.capacity_words = 4; accepts = `Roles [ "a" ] };
                { p with A.part_name = second; capacity_words = 100 };
              ];
          }
        | _ -> Alcotest.fail "toy L1 has one partition")
      toy
  in
  let shared = split "L1" in
  let expected = "Arch.make: level L1 has two partitions named L1" in
  (match A.make ~name:"split" ~levels:shared.A.levels ~mac_energy:shared.A.mac_energy () with
  | exception Invalid_argument msg -> Alcotest.(check string) "make rejects" expected msg
  | _ -> Alcotest.fail "make accepts two partitions named L1");
  (match Sun_serve.Codec.decode_arch (Sun_serve.Codec.encode_arch shared) with
  | Error msg -> Alcotest.(check string) "decode returns make's error" expected msg
  | Ok _ -> Alcotest.fail "decode accepts two partitions named L1");
  let diags = Wellformed.check_arch shared in
  check_codes "duplicate partition name" [ "SA020" ] diags;
  Alcotest.(check bool) "located at level 0, partition L1" true
    (List.exists
       (fun (d : D.t) -> d.D.where.D.level = Some 0 && d.D.where.D.partition = Some "L1")
       diags);
  (* named apart, the same split holds the tile *)
  let apart = split "L1b" in
  let a = A.make ~name:"split" ~levels:apart.A.levels ~mac_energy:apart.A.mac_energy () in
  let tile = List.map (fun d -> (d, 2)) (W.dim_names matmul) in
  let unit = List.map (fun d -> (d, 1)) (W.dim_names matmul) in
  let order = W.dim_names matmul in
  let levels =
    [
      { M.temporal = tile; order; spatial = unit };
      { M.temporal = unit; order; spatial = unit };
      { M.temporal = tile; order; spatial = unit };
    ]
  in
  Alcotest.(check (list string)) "legal" []
    (List.map (fun (d : D.t) -> d.D.message) (Legality.check_all matmul a levels));
  match Sun_cost.Model.validate matmul a (M.make_exn matmul levels) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "model rejects: %s" msg

(* A random mapping of a registry workload on toy, then 0-3 corruptions:
   unknown dims, factors below 1, dropped and duplicated entries, bad
   orders, wrong products, a dropped or repeated level, and shuffled
   lists (legal, but off the positional fast path). *)
let malformed_levels rng =
  let workloads = Array.of_list (Registry.workloads ()) in
  let _, w = workloads.(Sun_util.Rng.int rng (Array.length workloads)) in
  let pick_index xs = Sun_util.Rng.int rng (max 1 (List.length xs)) in
  let corrupt_assoc assoc =
    let i = pick_index assoc in
    let without = List.filteri (fun j _ -> j <> i) assoc in
    match (Sun_util.Rng.int rng 6, List.nth_opt assoc i) with
    | 0, _ -> ("Z", 1 + Sun_util.Rng.int rng 2) :: assoc
    | 1, _ -> List.mapi (fun j (d, f) -> (d, if j = i then -Sun_util.Rng.int rng 2 else f)) assoc
    | 2, _ -> without
    | 3, Some e -> e :: assoc
    | 4, _ -> List.mapi (fun j (d, f) -> (d, if j = i then f * 2 else f)) assoc
    | _ -> Sun_util.Rng.shuffle rng assoc
  in
  let corrupt_order order =
    let i = pick_index order in
    let without = List.filteri (fun j _ -> j <> i) order in
    match (Sun_util.Rng.int rng 4, List.nth_opt order i) with
    | 0, _ -> without
    | 1, Some d -> d :: order
    | 2, _ -> "Z" :: without
    | _ -> Sun_util.Rng.shuffle rng order
  in
  let corrupt levels =
    let l = pick_index levels in
    match Sun_util.Rng.int rng 4 with
    | 0 -> List.filteri (fun j _ -> j <> l) levels
    | 1 -> List.nth levels l :: levels
    | kind ->
      List.mapi
        (fun j (lm : M.level_mapping) ->
          if j <> l then lm
          else if kind = 2 then
            if Sun_util.Rng.bool rng then { lm with M.temporal = corrupt_assoc lm.M.temporal }
            else { lm with M.spatial = corrupt_assoc lm.M.spatial }
          else { lm with M.order = corrupt_order lm.M.order })
        levels
  in
  let levels = Array.to_list (random_mapping rng w toy).M.levels in
  let rec apply k levels = if k = 0 then levels else apply (k - 1) (corrupt levels) in
  (w, apply (Sun_util.Rng.int rng 4) levels)

let key (d : D.t) =
  (D.code_id d.D.code, D.severity_name d.D.severity, d.D.where.D.level, d.D.where.D.dim)

let owner_props =
  let open QCheck in
  let seeds = make ~print:string_of_int Gen.(int_bound 1_000_000) in
  let raises f = match f () with _ -> None | exception Invalid_argument msg -> Some msg in
  (* [make] raises exactly when the renderer reports an error, with the
     renderer's first diagnostic as its message *)
  let agrees ~prefix made diags =
    match (made, D.errors diags) with
    | None, [] -> true
    | Some msg, d :: _ when msg = prefix ^ d.D.message -> true
    | Some msg, [] -> Test.fail_reportf "make raises (%s), renderer reports nothing" msg
    | Some msg, d :: _ -> Test.fail_reportf "make raises %S, renderer's first is %S" msg d.D.message
    | None, d :: _ -> Test.fail_reportf "make accepts, renderer reports %s" d.D.message
  in
  [
    Test.make ~count:1000 ~name:"check_levels renders what the old rules reported" seeds
      (fun seed ->
        let w, levels = malformed_levels (Sun_util.Rng.create seed) in
        let sorted ds = List.sort compare (List.map key ds) in
        sorted (Legality.check_levels ~arch:toy w levels)
        = sorted (Legality_ref.check_levels ~arch:toy w levels)
        || Test.fail_report "diagnostics differ from the reference");
    Test.make ~count:1000 ~name:"workload make raises exactly on rendered errors" seeds
      (fun seed ->
        let rng = Sun_util.Rng.create seed in
        let workloads = Array.of_list (Registry.workloads ()) in
        let _, w = workloads.(Sun_util.Rng.int rng (Array.length workloads)) in
        let some_dim () = fst (Sun_util.Rng.pick rng w.W.dims) in
        let corrupt (w : W.t) =
          match Sun_util.Rng.int rng 7 with
          | 0 ->
            let d = some_dim () in
            let bound = -Sun_util.Rng.int rng 2 in
            { w with W.dims = List.map (fun (e, b) -> (e, if e = d then bound else b)) w.W.dims }
          | 1 -> { w with W.dims = Sun_util.Rng.pick rng w.W.dims :: w.W.dims }
          | 2 -> { w with W.dims = w.W.dims @ [ ("U", 2) ] }
          | 3 ->
            let index =
              Sun_util.Rng.pick rng [ W.Dim "Q"; W.Affine []; W.Affine [ (some_dim (), 0) ] ]
            in
            let op = { W.name = "extra"; kind = `Input; indices = [ index ] } in
            { w with W.operands = op :: w.W.operands }
          | 4 ->
            let is_input (op : W.operand) = op.W.kind = `Input in
            { w with W.operands = List.filter is_input w.W.operands }
          | 5 ->
            let outputs = List.filter (fun (op : W.operand) -> op.W.kind = `Output) w.W.operands in
            { w with W.operands = outputs @ w.W.operands }
          | _ -> { w with W.operands = Sun_util.Rng.shuffle rng w.W.operands }
        in
        let rec apply k w = if k = 0 then w else apply (k - 1) (corrupt w) in
        let w = apply (Sun_util.Rng.int rng 4) w in
        agrees ~prefix:"Workload.make: "
          (raises (fun () -> W.make ~name:w.W.name ~dims:w.W.dims ~operands:w.W.operands))
          (Wellformed.check_workload w));
    Test.make ~count:1000 ~name:"arch make raises exactly on rendered errors" seeds
      (fun seed ->
        let rng = Sun_util.Rng.create seed in
        let _, a = Sun_util.Rng.pick rng Sun_arch.Presets.all in
        let on_level f (a : A.t) =
          let i = Sun_util.Rng.int rng (A.num_levels a) in
          set_level i f a
        in
        let on_partition f =
          on_level (fun l ->
              match l.A.partitions with
              | [] -> l
              | ps ->
                let i = Sun_util.Rng.int rng (List.length ps) in
                { l with A.partitions = List.mapi (fun j p -> if j = i then f p else p) ps })
        in
        let corrupt (a : A.t) =
          match Sun_util.Rng.int rng 12 with
          | 0 -> { a with A.levels = List.tl a.A.levels }
          | 1 -> set_level (A.num_levels a - 1) (fun l -> { l with A.unbounded = false }) a
          | 2 -> on_level (fun l -> { l with A.fanout = -Sun_util.Rng.int rng 2 }) a
          | 3 -> on_level (fun l -> { l with A.partitions = [] }) a
          | 4 -> on_partition (fun p -> { p with A.capacity_words = -Sun_util.Rng.int rng 2 }) a
          | 5 ->
            on_level
              (fun l ->
                match l.A.partitions with
                | p :: _ -> { l with A.partitions = p :: l.A.partitions }
                | [] -> l)
              a
          | 6 -> on_partition (fun p -> { p with A.part_name = "dup" }) a
          | 7 -> on_level (fun l -> { l with A.unbounded = true }) a
          | 8 -> on_partition (fun p -> { p with A.bandwidth = -.Sun_util.Rng.float rng 1.0 }) a
          | 9 -> { a with A.mac_throughput = -Sun_util.Rng.int rng 2 }
          | kind ->
            (* a NaN or infinite energy is an error, a negative one a warning *)
            let e =
              if kind = 10 then
                Sun_util.Rng.pick rng [ Float.nan; Float.infinity; Float.neg_infinity ]
              else -.Sun_util.Rng.float rng 1.0
            in
            (match Sun_util.Rng.int rng 4 with
            | 0 -> on_partition (fun p -> { p with A.read_energy = e }) a
            | 1 -> on_partition (fun p -> { p with A.write_energy = e }) a
            | 2 -> on_level (fun l -> { l with A.noc_hop_energy = e }) a
            | _ -> { a with A.mac_energy = e })
        in
        let rec apply k a =
          if k = 0 || A.num_levels a = 0 then a else apply (k - 1) (corrupt a)
        in
        let a = apply (Sun_util.Rng.int rng 4) a in
        agrees ~prefix:"Arch.make: " (raises (fun () -> remake a)) (Wellformed.check_arch a));
  ]

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
          Alcotest.test_case "level count (SA005)" `Quick test_level_count;
        ] );
      ( "wellformed",
        [
          Alcotest.test_case "architectures" `Quick test_arch_wellformed;
          Alcotest.test_case "workloads" `Quick test_workload_wellformed;
          Alcotest.test_case "configs" `Quick test_config_wellformed;
          Alcotest.test_case "workload-arch pairs" `Quick test_pair_wellformed;
          Alcotest.test_case "duplicate partition names" `Quick test_duplicate_partition_names;
          Alcotest.test_case "rules the model divides by" `Quick test_arch_model_rules;
        ] );
      ( "pruning",
        [ Alcotest.test_case "registry is sound" `Quick test_pruning_registry_clean ] );
      ( "admissibility",
        [
          Alcotest.test_case "bound monotone on samples" `Quick test_admissibility_monotone;
          Alcotest.test_case "differential vs exhaustive" `Slow test_admissibility_differential;
        ] );
      ("capacity", List.map QCheck_alcotest.to_alcotest capacity_agreement_props);
      ("one owner", List.map QCheck_alcotest.to_alcotest owner_props);
    ]
