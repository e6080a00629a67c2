(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (run with no arguments or a subset of
   table1/table3/table6/fig6/fig7/fig8/fig9, plus the extra
   ablation/versatility/scalability studies), timing each driver. Its
   other modes write the audit, evaluate, transfer and search ledgers or
   profile one search set. *)

let run_experiment name driver =
  Printf.printf "==============================================================\n";
  Printf.printf "== %s\n" name;
  Printf.printf "==============================================================\n%!";
  let started = Unix.gettimeofday () in
  let output = driver () in
  print_string output;
  if output <> "" && output.[String.length output - 1] <> '\n' then print_newline ();
  Printf.printf "-- %s done in %.1fs\n\n%!" name (Unix.gettimeofday () -. started)

(* Auditor scaling: time Audit.check_kernels over growing prefixes of the
   bundled kernel family and persist the curve (plus the per-kernel
   exhaustive-enumeration sizes that drive it) to BENCH_audit.json, so the
   differential oracle's cost stays visible as kernels are added. *)
let audit_bench () =
  let module Audit = Sun_analysis.Audit in
  let module Json = Sun_serve.Json in
  let total = List.length (Audit.kernels ()) in
  Printf.printf "audit: differential oracle over %d bundled kernels\n%!" total;
  let rows =
    List.map
      (fun limit ->
        let started = Unix.gettimeofday () in
        let reports = Audit.check_kernels ~limit () in
        let elapsed = Unix.gettimeofday () -. started in
        let mappings =
          List.fold_left (fun acc r -> acc + r.Audit.mappings_enumerated) 0 reports
        in
        let diags =
          List.fold_left (fun acc r -> acc + List.length r.Audit.diagnostics) 0 reports
        in
        Printf.printf "  kernels %-2d %8.3fs  %7d mappings enumerated, %d diagnostics\n%!"
          limit elapsed mappings diags;
        Json.Obj
          [
            ("kernels", Json.Int limit);
            ("wall_s", Json.Float elapsed);
            ("mappings_enumerated", Json.Int mappings);
            ("diagnostics", Json.Int diags);
            ( "reports",
              Json.List
                (List.map
                   (fun r ->
                     Json.Obj
                       [
                         ("kernel", Json.String r.Audit.kernel);
                         ("orders_kept", Json.Int r.Audit.orders_kept);
                         ("orders_total", Json.Int r.Audit.orders_total);
                         ("frontier_checked", Json.Int r.Audit.frontier_checked);
                         ("mappings_enumerated", Json.Int r.Audit.mappings_enumerated);
                         ("exhaustive_edp", Json.Float r.Audit.exhaustive_edp);
                         ("search_edp", Json.Float r.Audit.search_edp);
                       ])
                   reports) );
          ])
      (List.init total (fun i -> i + 1))
  in
  let out = "BENCH_audit.json" in
  let oc = open_out out in
  output_string oc (Json.to_string_pretty (Json.Obj [ ("audit", Json.List rows) ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "audit: wrote %s\n" out

(* Cost-model hot path: evaluations/sec of the allocation-free evaluator
   (full, score-only, and score-only on packed rows, the form the search
   scores) against the frozen pre-PR evaluator (Model_ref) on the
   registry's hardest kernels, min-of-N interleaved reps, plus
   footprint-probe throughput on an optimizer-like access pattern.
   Persists everything to BENCH_evaluate.json and exits non-zero unless
   the hardest kernel clears the 2x evaluations/sec gate and every
   kernel's costs are bit-identical across evaluators. *)
let evaluate_bench () =
  let module W = Sun_tensor.Workload in
  let module Model = Sun_cost.Model in
  let module Ref = Model_ref in
  let module Probe = Sun_cost.Probe in
  let module Json = Sun_serve.Json in
  let arch_name = "conventional" in
  let arch = Sun_arch.Presets.conventional in
  (* hardest last: tcl (6 dims, 64^3 x 32^3) carries the acceptance gate *)
  let kernel_names = [ "mmc"; "ttmc"; "tcl" ] in
  let hardest = "tcl" in
  let reps = 7 and evals = 1000 in
  let time_once f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to evals do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  Printf.printf "evaluate: %d evaluations/rep, min-of-%d, arch %s\n%!" evals reps arch_name;
  let gate = 2.0 in
  let gate_speedup = ref nan in
  let all_identical = ref true in
  let rows =
    List.map
      (fun name ->
        let w =
          match Sun_serve.Registry.find_workload name with
          | Ok w -> w
          | Error msg ->
            Printf.eprintf "evaluate: %s\n" msg;
            exit 2
        in
        let m =
          match Sun_core.Optimizer.optimize w arch with
          | Ok r -> r.Sun_core.Optimizer.mapping
          | Error msg ->
            Printf.eprintf "evaluate: no mapping for %s: %s\n" name msg;
            exit 2
        in
        let ctx = Model.context w arch in
        let ref_ctx = Ref.context w arch in
        let rows = Sun_mapping.Mapping.Rows.of_levels w m.Sun_mapping.Mapping.levels in
        (* bit-identity spot check before timing anything *)
        let identical =
          match (Model.evaluate_ctx ctx m, Ref.evaluate_ctx ref_ctx m) with
          | Ok c, Ok c' ->
            Int64.bits_of_float c.Model.energy_pj = Int64.bits_of_float c'.Ref.energy_pj
            && Int64.bits_of_float c.Model.cycles = Int64.bits_of_float c'.Ref.cycles
            && Int64.bits_of_float c.Model.edp = Int64.bits_of_float c'.Ref.edp
            &&
            (match Model.score_rows ctx rows with
            | Ok s -> Int64.bits_of_float s.Model.s_edp = Int64.bits_of_float c.Model.edp
            | Error _ -> false)
          | _ -> false
        in
        if not identical then all_identical := false;
        (* interleave the four evaluators rep by rep, min-of-N each, so a
           load spike hits all of them rather than skewing one ratio *)
        let ref_best = ref infinity and full_best = ref infinity and score_best = ref infinity in
        let rows_best = ref infinity in
        for _ = 1 to reps do
          ref_best := Float.min !ref_best (time_once (fun () -> ignore (Ref.evaluate_ctx ref_ctx m)));
          full_best :=
            Float.min !full_best (time_once (fun () -> ignore (Model.evaluate_ctx ctx m)));
          score_best :=
            Float.min !score_best (time_once (fun () -> ignore (Model.score_ctx ctx m)));
          rows_best := Float.min !rows_best (time_once (fun () -> ignore (Model.score_rows ctx rows)))
        done;
        let ref_eps = float_of_int evals /. !ref_best in
        let full_eps = float_of_int evals /. !full_best in
        let score_eps = float_of_int evals /. !score_best in
        let rows_eps = float_of_int evals /. !rows_best in
        let speedup_full = full_eps /. ref_eps in
        let speedup_score = score_eps /. ref_eps in
        let speedup_rows = rows_eps /. ref_eps in
        if name = hardest then gate_speedup := speedup_score;
        (* footprint probes: the optimizer's fit-test pattern — a small
           pool of candidate extent vectors probed for every operand *)
        let dims = Array.of_list (W.dim_names w) in
        let nvec = 64 in
        let pool =
          Array.init nvec (fun v ->
              Array.mapi (fun i _ -> 1 + ((v + i) mod 4)) dims)
        in
        let ops = List.map (fun (op : W.operand) -> op.W.name) w.W.operands in
        let probe_rounds = 200 in
        let run_probes probe =
          let ext = Probe.extents probe in
          let axes = List.map (fun op -> Probe.axes probe ~op) ops in
          for _ = 1 to probe_rounds do
            Array.iter
              (fun vec ->
                Array.blit vec 0 ext 0 (Array.length vec);
                List.iter (fun ax -> ignore (Probe.footprint probe ax)) axes)
              pool
          done
        in
        let nprobes = probe_rounds * nvec * List.length ops in
        let probes_once probe =
          let t0 = Unix.gettimeofday () in
          run_probes probe;
          Unix.gettimeofday () -. t0
        in
        let probe = Probe.create w in
        let probe_best = ref infinity in
        for _ = 1 to reps do
          probe_best := Float.min !probe_best (probes_once probe)
        done;
        let pps = float_of_int nprobes /. !probe_best in
        Printf.printf
          "  %-5s ref %9.0f/s  full %9.0f/s (%.2fx)  score %9.0f/s (%.2fx)  rows %9.0f/s \
           (%.2fx)  %s\n%!"
          name ref_eps full_eps speedup_full score_eps speedup_score rows_eps speedup_rows
          (if identical then "bit-identical" else "COSTS DIFFER");
        Printf.printf "        probes %9.0f/s\n%!" pps;
        Json.Obj
          [
            ("kernel", Json.String name);
            ("arch", Json.String arch_name);
            ("ref_evals_per_s", Json.Float ref_eps);
            ("full_evals_per_s", Json.Float full_eps);
            ("score_evals_per_s", Json.Float score_eps);
            ("rows_evals_per_s", Json.Float rows_eps);
            ("speedup_full", Json.Float speedup_full);
            ("speedup_score", Json.Float speedup_score);
            ("speedup_rows", Json.Float speedup_rows);
            ("bit_identical", Json.Bool identical);
            ("probes_per_s", Json.Float pps);
          ])
      kernel_names
  in
  let pass = !all_identical && !gate_speedup >= gate in
  Printf.printf "evaluate: hardest kernel %s speedup %.2fx (gate %.1fx)  %s\n%!" hardest
    !gate_speedup gate
    (if pass then "ok" else "FAILED");
  let out = "BENCH_evaluate.json" in
  let oc = open_out out in
  output_string oc
    (Json.to_string_pretty
       (Json.Obj
          [
            ( "evaluate",
              Json.Obj
                [
                  ("reps", Json.Int reps);
                  ("evals_per_rep", Json.Int evals);
                  ("kernels", Json.List rows);
                  ("hardest", Json.String hardest);
                  ("gate_speedup", Json.Float gate);
                  ("measured_speedup", Json.Float !gate_speedup);
                  ("bit_identical", Json.Bool !all_identical);
                  ("pass", Json.Bool pass);
                ] );
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "evaluate: wrote %s\n" out;
  if not pass then exit 1

(* Cross-request mapping transfer ({!Sun_serve.Transfer}): for each
   catalog (resnet18, inception on simba_like), a cold pass searches every
   layer from scratch and stores its result, then a warm pass re-runs the
   catalog against that populated cache — the steady state of a server
   that has already scheduled the rest of the network — seeding each layer
   from its nearest family member. A layer never seeds itself
   ([~exclude_self]); the exact-fingerprint repeat is the pipeline's cache
   hit, which skips the search entirely, so the bench isolates what
   cross-layer nearest-neighbor transfer buys a search that must still
   run. Persists per-layer evaluated counts, search wall seconds and EDPs
   to BENCH_transfer.json and exits non-zero unless the warm resnet18 pass
   evaluates >= 20% fewer mappings than cold with per-layer EDP equal or
   better on both catalogs. The wall seconds are reported, not gated: one
   search per layer and side is too few samples to gate on. *)
let transfer_bench () =
  let module Json = Sun_serve.Json in
  let module Cache = Sun_serve.Cache in
  let module Transfer = Sun_serve.Transfer in
  let module Codec = Sun_serve.Codec in
  let module Opt = Sun_core.Optimizer in
  let module Model = Sun_cost.Model in
  let arch = Sun_arch.Presets.simba_like in
  let config = Opt.default_config in
  let catalog prefix =
    let pl = String.length prefix in
    List.filter
      (fun (n, _) -> String.length n > pl && String.sub n 0 pl = prefix)
      (Sun_serve.Registry.workloads ())
  in
  let search ?seed w =
    match Opt.optimize ~config ?seed w arch with
    | Ok r ->
      (r.Opt.stats.Opt.evaluated, r.Opt.stats.Opt.wall_seconds, r.Opt.cost.Model.edp, r.Opt.mapping)
    | Error msg ->
      Printf.eprintf "transfer: optimize failed: %s\n" msg;
      exit 2
  in
  let run_catalog name prefix =
    let layers = catalog prefix in
    let cold = List.map (fun (n, w) -> (n, search w)) layers in
    let cache = Cache.create ~capacity:(List.length layers + 1) () in
    List.iter2
      (fun (n, w) (_, (_, _, _, m)) ->
        Cache.store cache n
          (Json.Obj
             (("mapping", Codec.encode_mapping m) :: Transfer.stored_fields ~config w arch)))
      layers cold;
    let warm =
      List.map
        (fun (n, w) ->
          let seed = Transfer.find_seed ~exclude_self:true ~cache ~config w arch in
          (n, search ?seed w, seed <> None))
        layers
    in
    let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
    let cold_evals = sum (fun (_, (e, _, _, _)) -> e) cold in
    let warm_evals = sum (fun (_, (e, _, _, _), _) -> e) warm in
    let sum_s f = List.fold_left (fun acc x -> acc +. f x) 0.0 in
    let cold_s = sum_s (fun (_, (_, t, _, _)) -> t) cold in
    let warm_s = sum_s (fun (_, (_, t, _, _), _) -> t) warm in
    let seeded = sum (fun (_, _, s) -> if s then 1 else 0) warm in
    let edp_ok = ref true in
    let rows =
      List.map2
        (fun (n, (ce, ct, cedp, _)) (_, (we, wt, wedp, _), s) ->
          (* "equal or better" up to float-print jitter: one part in 1e9 *)
          if wedp > cedp *. (1.0 +. 1e-9) then begin
            Printf.eprintf "transfer: %s warm EDP %.6g worse than cold %.6g\n" n wedp cedp;
            edp_ok := false
          end;
          Json.Obj
            [
              ("layer", Json.String n);
              ("seeded", Json.Bool s);
              ("cold_evaluated", Json.Int ce);
              ("warm_evaluated", Json.Int we);
              ("cold_search_s", Json.Float ct);
              ("warm_search_s", Json.Float wt);
              ("cold_edp", Json.Float cedp);
              ("warm_edp", Json.Float wedp);
            ])
        cold warm
    in
    let reduction =
      if cold_evals = 0 then 0.0
      else 1.0 -. (float_of_int warm_evals /. float_of_int cold_evals)
    in
    Printf.printf
      "transfer: %-10s %d layers, %d seeded; evaluated cold %d -> warm %d (%.1f%% fewer); \
       search %.2f s cold, %.2f s warm\n%!"
      name (List.length layers) seeded cold_evals warm_evals (100.0 *. reduction) cold_s warm_s;
    ( Json.Obj
        [
          ("layers", Json.Int (List.length layers));
          ("seeded", Json.Int seeded);
          ("cold_evaluated", Json.Int cold_evals);
          ("warm_evaluated", Json.Int warm_evals);
          ("reduction", Json.Float reduction);
          ("cold_search_s", Json.Float cold_s);
          ("warm_search_s", Json.Float warm_s);
          ("per_layer", Json.List rows);
        ],
      reduction, !edp_ok )
  in
  let resnet, resnet_reduction, resnet_edp_ok = run_catalog "resnet18" "resnet18/" in
  let inception, _, inception_edp_ok = run_catalog "inception" "inception/" in
  (* 20%, down from 25% when cold searches started pruning with the same
     admissible alpha-beta bound as warm ones: cold ResNet-18 evaluations
     fell from 20574 to 19490 while warm stayed at 15238, so the relative
     reduction dropped from 25.9% to 21.8% with no warm search doing more
     work *)
  let gate = 0.20 in
  let pass = resnet_reduction >= gate && resnet_edp_ok && inception_edp_ok in
  let out = "BENCH_transfer.json" in
  let oc = open_out out in
  output_string oc
    (Json.to_string_pretty
       (Json.Obj
          [
            ( "transfer",
              Json.Obj
                [
                  ("arch", Json.String "simba_like");
                  ("gate_reduction", Json.Float gate);
                  ("resnet18", resnet);
                  ("inception", inception);
                  ("pass", Json.Bool pass);
                ] );
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "transfer: wrote %s\n" out;
  if not pass then begin
    if resnet_reduction < gate then
      Printf.eprintf "transfer: resnet18 reduction %.1f%% below the %.0f%% gate\n"
        (100.0 *. resnet_reduction) (100.0 *. gate);
    exit 1
  end

(* bench/perf's three cold request sets, rebuilt from [Sun_workloads]:
   (name, arch name, arch, workloads). *)
let cold_sets () =
  let module P = Sun_arch.Presets in
  [
    ( "resnet18-simba",
      "simba",
      P.simba_like,
      List.map (fun l -> l.Sun_workloads.Resnet18.workload) (Sun_workloads.Resnet18.layers ~batch:16 ())
    );
    ( "tensor-simba",
      "simba",
      P.simba_like,
      List.map (fun i -> i.Sun_workloads.Non_dnn.workload) Sun_workloads.Non_dnn.all );
    ( "inception-wu-conventional",
      "conventional",
      P.conventional,
      List.map
        (fun l -> l.Sun_workloads.Inception.workload)
        (Sun_workloads.Inception.weight_update_layers ~batch:16 ()) );
  ]

(* Cold-search ledger: the cold sets searched in process with the default
   configuration. Persists each search's counts, EDP and in-process search
   seconds to BENCH_search.json. Counts and EDPs are a pure function of
   the tree (the EDP is spelled [%.17g], so equal bits read equal); the
   [*_search_s] lines are the only timings, and ci.sh diffs everything
   else against the committed file. *)
let search_bench () =
  let module Json = Sun_serve.Json in
  let module Opt = Sun_core.Optimizer in
  let module Model = Sun_cost.Model in
  let run_set (name, arch_name, arch, workloads) =
    let rows =
      List.map
        (fun (w : Sun_tensor.Workload.t) ->
          match Opt.optimize w arch with
          | Error msg ->
            Printf.eprintf "search: %s on %s failed: %s\n" w.Sun_tensor.Workload.name arch_name msg;
            exit 2
          | Ok r ->
            let s = r.Opt.stats in
            ( s.Opt.wall_seconds,
              Json.Obj
                [
                  ("workload", Json.String w.Sun_tensor.Workload.name);
                  ("examined", Json.Int s.Opt.examined);
                  ("evaluated", Json.Int s.Opt.evaluated);
                  ("pruned_alpha_beta", Json.Int s.Opt.pruned_alpha_beta);
                  ("build_errors", Json.Int s.Opt.build_errors);
                  ("eval_errors", Json.Int s.Opt.eval_errors);
                  ("tile_fit_tests", Json.Int s.Opt.tile_fit_tests);
                  ("shared_verdicts", Json.Int s.Opt.shared_verdicts);
                  ("edp", Json.String (Printf.sprintf "%.17g" r.Opt.cost.Model.edp));
                  ("in_process_search_s", Json.Float s.Opt.wall_seconds);
                ] ))
        workloads
    in
    let total = List.fold_left (fun acc (t, _) -> acc +. t) 0.0 rows in
    Printf.printf "search: %-26s %2d searches on %-12s %.3f s\n%!" name (List.length rows) arch_name
      total;
    Json.Obj
      [
        ("set", Json.String name);
        ("arch", Json.String arch_name);
        ("total_search_s", Json.Float total);
        ("searches", Json.List (List.map snd rows));
      ]
  in
  let body = List.map run_set (cold_sets ()) in
  let out = "BENCH_search.json" in
  let oc = open_out out in
  output_string oc (Json.to_string_pretty (Json.Obj [ ("search", Json.List body) ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "search: wrote %s\n" out

(* Where one cold set's search time goes: the set searched [reps] times
   in process under the SIGPROF sampler of [Profile] (see its bias note),
   after one unsampled run that warms the process, and on until the first
   sample lands. Prints the functions with the largest self and inclusive
   shares of the samples; exits 1 when no sample was taken. *)
let profile_bench set reps =
  let workloads, arch =
    match List.find_opt (fun (name, _, _, _) -> name = set) (cold_sets ()) with
    | Some (_, _, arch, workloads) -> (workloads, arch)
    | None ->
      Printf.eprintf "profile: unknown set %S; known: %s\n" set
        (String.concat ", " (List.map (fun (name, _, _, _) -> name) (cold_sets ())));
      exit 2
  in
  let run () = List.iter (fun w -> ignore (Sun_core.Optimizer.optimize w arch)) workloads in
  run ();
  let runs, stacks = Profile.sample ~times:reps run in
  Printf.printf "profile: %s, %d runs of %d searches, timer interval %.0f us of CPU time\n" set
    runs (List.length workloads) (Profile.interval *. 1e6);
  let n = Profile.report stacks in
  Printf.printf "profile: %d samples\n" n;
  if n = 0 then exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let known = List.map fst Sun_experiments.Figures.all in
  match args with
  | [ "audit" ] -> audit_bench ()
  | [ "evaluate" ] -> evaluate_bench ()
  | [ "transfer" ] -> transfer_bench ()
  | [ "search" ] -> search_bench ()
  | [ "profile"; set ] -> profile_bench set 50
  | [ "profile"; set; "--reps"; reps ] -> (
    match int_of_string_opt reps with
    | Some reps when reps >= 1 -> profile_bench set reps
    | _ ->
      Printf.eprintf "profile: --reps takes a positive integer, not %S\n" reps;
      exit 2)
  | [] -> List.iter (fun (name, driver) -> run_experiment name driver) Sun_experiments.Figures.all
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name Sun_experiments.Figures.all with
        | Some driver -> run_experiment name driver
        | None ->
          Printf.eprintf
            "unknown experiment %S; known: %s, 'audit', 'evaluate', 'transfer', \
             'search' or 'profile SET [--reps N]'\n"
            name
            (String.concat ", " known);
          exit 2)
      names
