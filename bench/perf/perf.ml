(* Time-to-mapping and mapping quality of the `sunstone serve` daemon on
   the paper's workloads, with an optional traced run that splits the time
   into layers. See README.md for the workloads, metrics and bounds.

     perf.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE] [--smoke] [--write-reference]

   The last line of standard output is the run's JSON result. *)

module J = Sun_serve.Json

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

(* Linear interpolation between order statistics; 0.0 on no samples. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median = quantile 0.5

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

let geomean xs =
  if xs = [] then 0.0 else exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* ------------------------------------------------------------------ *)
(* Metric tables                                                       *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("search_s", "s");
    ("latency_p50_ms", "ms");
    ("latency_p98_ms", "ms");
    ("edp_geomean", "pJ.cycle");
    ("edp_max_ratio", "ratio");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("optimizer.search_s", "s");
    ("optimizer.examined", "count");
    ("optimizer.evaluated", "count");
    ("optimizer.pruned_alpha_beta", "count");
    ("optimizer.build_errors", "count");
    ("optimizer.eval_errors", "count");
    ("optimizer.evaluated_per_examined", "ratio");
    ("optimizer.prune_ratio", "ratio");
    ("optimizer.eval_error_ratio", "ratio");
    ("optimizer.us_per_examined", "us");
    ("optimizer.tile_candidates", "count");
    ("optimizer.unroll_candidates", "count");
    ("optimizer.orders_kept", "count");
    ("optimizer.orders_dropped", "count");
    ("order_trie.s", "s");
    ("order_trie.nodes_visited", "count");
    ("order_trie.nodes_pruned", "count");
    ("order_trie.candidates", "count");
    ("model.context_us", "us");
    ("model.score_ns", "ns");
    ("model.evaluate_ns", "ns");
    ("model.score_share_est", "ratio");
    ("model.evaluations", "count");
    ("model.evaluate_rejected", "count");
    ("model.probe_hit_ratio", "ratio");
    ("serve.parse_s", "s");
    ("serve.parse_count", "count");
    ("serve.gate_s", "s");
    ("serve.gate_count", "count");
    ("serve.cache_s", "s");
    ("serve.cache_count", "count");
    ("serve.compute_s", "s");
    ("serve.compute_count", "count");
    ("serve.recheck_s", "s");
    ("serve.recheck_count", "count");
    ("serve.hits", "count");
    ("serve.computed", "count");
    ("serve.errors", "count");
    ("serve.cache_stores", "count");
    ("cache.hit_ratio", "ratio");
    ("transfer.seeded", "count");
    ("transfer.seed_rejected", "count");
    ("transfer.alpha_ratio", "ratio");
    ("fingerprint.request_us", "us");
    ("codec.encode_mapping_us", "us");
    ("codec.decode_workload_us", "us");
    ("parpool.job_s", "s");
    ("parpool.job_count", "count");
    ("parpool.dispatched", "count");
    ("parpool.respawned", "count");
    ("server.wait_s", "s");
    ("analysis.recheck_s", "s");
    ("analysis.recheck_rejected", "count");
    ("telemetry.overhead_frac", "ratio");
    ("telemetry.overhead_q1", "ratio");
    ("telemetry.overhead_q3", "ratio");
    ("check.edp_worse_layers", "count");
  ]

(* ------------------------------------------------------------------ *)
(* Running a workload against the daemon                                *)
(* ------------------------------------------------------------------ *)

type env = { cli : string; dir : string; reference : (string, float) Hashtbl.t }

(* One answered request: [pos] is its (connection, index) in the request
   sequence, which every repetition of a run sends alike; [rep] numbers the
   cold pass or mix repetition. *)
type sample = { req : Mix.request; pos : int * int; start : float; stop : float; line : string; rep : int }

let setup_spawns = 15

let counter = ref 0

let fresh env prefix =
  incr counter;
  Filename.concat env.dir (Printf.sprintf "%s%d" prefix !counter)

(* Cold workloads: one worker, no cache. Mixes: two workers and a fresh,
   empty disk cache. *)
let spawn env (m : Mix.t) ~metrics =
  let args =
    (match m.Mix.kind with
    | Mix.Cold -> [ "--jobs"; "1"; "--no-cache" ]
    | Mix.Mix _ -> [ "--jobs"; "2"; "--cache-dir"; fresh env "cache" ])
    @ match metrics with None -> [] | Some f -> [ "--metrics"; f ]
  in
  Daemon.spawn ~cli:env.cli ~sock:(fresh env "d" ^ ".sock") ~args

let with_daemon env m ~metrics f =
  let d, _ = spawn env m ~metrics in
  Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () -> f d)

let setup_times env m =
  List.init setup_spawns (fun _ ->
      let d, s = spawn env m ~metrics:None in
      Daemon.stop d;
      s)

(* Sends [reqs], one array per connection, closed-loop to a running
   daemon. *)
let drive d ~rep (reqs : Mix.request array array) =
  let lines =
    Array.mapi (fun c rs -> Array.mapi (fun i r -> Mix.line ~id:(Printf.sprintf "r%d-c%d-%d" rep c i) r) rs) reqs
  in
  let res = Daemon.closed_loop d.Daemon.sock lines in
  List.concat
    (Array.to_list
       (Array.mapi
          (fun c rs ->
            Array.to_list
              (Array.mapi
                 (fun i (start, stop, line) -> { req = reqs.(c).(i); pos = (c, i); start; stop; line; rep })
                 rs))
          res))

let pass rng m = [| Array.of_list (Mix.pass_order rng m) |]

(* Timed section: cold passes on one daemon, or mix repetitions each on a
   fresh daemon with a fresh cache. There are always at least two, so that
   each request has a fastest; after that another one starts only while it
   is expected, from the previous one's duration, to end within [seconds].
   Returns the samples and each daemon's peak RSS. *)
let timed env (m : Mix.t) ~rng ~seconds =
  let t0 = Daemon.now () in
  let rec repeat rep last acc once =
    let started = Daemon.now () in
    if rep > 1 && started -. t0 +. last > seconds then acc
    else begin
      let x = once rep in
      repeat (rep + 1) (Daemon.now () -. started) (x :: acc) once
    end
  in
  match m.Mix.kind with
  | Mix.Cold ->
    let order = pass rng m in
    with_daemon env m ~metrics:None (fun d ->
        let samples = List.concat (repeat 0 0.0 [] (fun rep -> drive d ~rep order)) in
        (samples, [ Daemon.peak_rss_mb d ]))
  | Mix.Mix { total; clients } ->
    let streams = Mix.streams rng ~total clients in
    let reps =
      repeat 0 0.0 [] (fun rep ->
          with_daemon env m ~metrics:None (fun d ->
              let s = drive d ~rep streams in
              (s, Daemon.peak_rss_mb d)))
    in
    (List.concat_map fst reps, List.map snd reps)

(* Output check of every sample, per repetition. Returns the problems and
   the samples that passed with their checked answers. *)
let check samples =
  let reps = List.sort_uniq compare (List.map (fun s -> s.rep) samples) in
  let results =
    List.concat_map
      (fun rep ->
        let mine =
          List.sort (fun a b -> Float.compare a.stop b.stop) (List.filter (fun s -> s.rep = rep) samples)
        in
        List.combine mine (Check.repetition (List.map (fun s -> (s.req, s.line)) mine)))
      reps
  in
  ( List.filter_map (function _, Error e -> Some e | _, Ok _ -> None) results,
    List.filter_map (function s, Ok c -> Some (s, c) | _, Error _ -> None) results )

let unreferenced env passed =
  List.sort_uniq compare
    (List.filter_map
       (fun (s, _) ->
         if Hashtbl.mem env.reference s.req.Mix.key then None
         else Some (s.req.Mix.key ^ ": no entry in " ^ Check.reference_path))
       passed)

let edp_ratios env passed =
  List.filter_map
    (fun (s, c) -> Option.map (fun r -> c.Check.edp /. r) (Hashtbl.find_opt env.reference s.req.Mix.key))
    passed

(* EDP geometric mean over the distinct requests, each at its first
   answer; summed in sorted order so equal inputs give equal bits. *)
let edp_geomean passed =
  let first = Hashtbl.create 64 in
  List.iter
    (fun (s, c) -> if not (Hashtbl.mem first s.req.Mix.key) then Hashtbl.replace first s.req.Mix.key c.Check.edp)
    passed;
  geomean (List.sort Float.compare (Hashtbl.fold (fun _ e acc -> e :: acc) first []))

let latency s = s.stop -. s.start

let best xs = List.fold_left Float.min infinity xs

(* Time to map the workload's request sequence once, and the median and
   98th percentile request latency in ms. Each request of the sequence
   counts at its fastest over the run's repetitions: the work is the same
   each time, and other tenants of the machine only ever add time. *)
let latencies samples =
  let positions = List.sort_uniq compare (List.map (fun s -> s.pos) samples) in
  let fastest =
    List.map
      (fun p -> best (List.filter_map (fun s -> if s.pos = p then Some (latency s) else None) samples))
      positions
  in
  let ms = List.map (fun x -> 1e3 *. x) fastest in
  (sum Fun.id fastest, median ms, percentile 0.98 ms)

type result = { problems : string list; attempted : int; failed : int; metrics : (string * float) list }

let run_untraced env (m : Mix.t) ~seed ~seconds =
  let rng = Sun_util.Rng.create seed in
  let setups = setup_times env m in
  let samples, rss = timed env m ~rng ~seconds in
  let problems, passed = check samples in
  let problems = problems @ unreferenced env passed in
  let search, p50, p98 = latencies samples in
  {
    problems;
    attempted = List.length samples;
    failed = List.length samples - List.length passed;
    metrics =
      [
        ("setup_s", median setups);
        ("search_s", search);
        ("latency_p50_ms", p50);
        ("latency_p98_ms", p98);
        ("edp_geomean", edp_geomean passed);
        ("edp_max_ratio", List.fold_left Float.max 0.0 (edp_ratios env passed));
        ("peak_rss_mb", median rss);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                           *)
(* ------------------------------------------------------------------ *)

(* In-process layer measurements cover every distinct request of a cold
   workload, and a seed-chosen sample of this many for a mix. *)
let mix_layer_sample = 16

let read_telemetry path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> J.of_string text

let telemetry_counter doc name =
  match Option.bind (J.member "counters" doc) (J.member name) with Some (J.Int n) -> float_of_int n | _ -> 0.0

let telemetry_hist doc name =
  match Option.bind (J.member "histograms" doc) (J.member name) with
  | Some h ->
    let f k = match J.member k h with Some v -> Result.value ~default:0.0 (J.as_float v) | None -> 0.0 in
    (f "count", f "sum")
  | None -> (0.0, 0.0)

let run_traced env (m : Mix.t) ~seed =
  let workload = m.Mix.name in
  let rng = Sun_util.Rng.create seed in
  let metrics_file = fresh env "metrics" ^ ".json" in
  (* 1. one pass (or one mix repetition) with daemon telemetry written out *)
  let reqs =
    match m.Mix.kind with
    | Mix.Mix { total; clients } -> Mix.streams rng ~total clients
    | Mix.Cold -> pass rng m
  in
  let samples =
    with_daemon env m ~metrics:(Some metrics_file) (fun d ->
        Trace.record ~workload ~request:"" "daemon.pass" (fun parent ->
            let samples = drive d ~rep:0 reqs in
            List.iter
              (fun s ->
                ignore
                  (Trace.add ~parent ~workload ~request:s.req.Mix.key ~start:s.start ~stop:s.stop
                     "client.request"))
              samples;
            samples))
  in
  let problems, passed = check samples in
  let problems = problems @ unreferenced env passed in
  let tel =
    match read_telemetry metrics_file with Ok doc -> doc | Error e -> failwith ("daemon telemetry: " ^ e)
  in
  (* 2. in-process calls into each layer on the same inputs *)
  let layer_reqs =
    match m.Mix.kind with
    | Mix.Cold -> m.Mix.distinct
    | Mix.Mix _ -> List.filteri (fun i _ -> i < mix_layer_sample) (Sun_util.Rng.shuffle rng m.Mix.distinct)
  in
  let counts =
    List.mapi (fun i r -> Layers.measure ~workload ~telemetry_first:(i mod 2 = 1) r) layer_reqs
  in
  let layer_problems = List.filter_map (function Error e -> Some e | Ok _ -> None) counts in
  let counts = List.filter_map Result.to_option counts in
  let csum f = float_of_int (List.fold_left (fun acc c -> acc + f c) 0 counts) in
  let spans name = Trace.named ~workload name in
  let total name = sum Trace.duration (spans name) in
  let per_call scale name =
    median (List.map (fun s -> scale *. Trace.duration s /. float_of_int s.Trace.calls) (spans name))
  in
  let search = total "optimizer.optimize" in
  let examined = csum (fun c -> c.Layers.examined) in
  let evaluated = csum (fun c -> c.Layers.evaluated) in
  let eval_errors = csum (fun c -> c.Layers.eval_errors) in
  let overheads =
    List.map2
      (fun plain instrumented -> (Trace.duration instrumented /. Trace.duration plain) -. 1.0)
      (spans "optimizer.optimize")
      (spans "optimizer.optimize_telemetry")
  in
  (* score time of each request's search, estimated from its per-call cost *)
  let score_s =
    List.fold_left2
      (fun acc s c -> acc +. (Trace.duration s /. float_of_int s.Trace.calls *. float_of_int c.Layers.evaluated))
      0.0 (spans "model.score") counts
  in
  let counter = telemetry_counter tel in
  let hist = telemetry_hist tel in
  let span_pair name =
    let n, s = hist ("serve." ^ name ^ "_s") in
    [ ("serve." ^ name ^ "_s", s); ("serve." ^ name ^ "_count", n) ]
  in
  let job_n, job_s = hist "parpool.job_s" in
  let alpha_n, alpha_sum = hist "transfer.alpha_ratio" in
  let computed_latency =
    sum (fun (s, _) -> latency s) (List.filter (fun (_, c) -> c.Check.status = "computed") passed)
  in
  let worse =
    List.length
      (List.sort_uniq compare
         (List.filter_map
            (fun (s, c) ->
              match Hashtbl.find_opt env.reference s.req.Mix.key with
              | Some r when c.Check.edp > r *. (1.0 +. 1e-9) -> Some s.req.Mix.key
              | _ -> None)
            passed))
  in
  let metrics =
    [
      ("optimizer.search_s", search);
      ("optimizer.examined", examined);
      ("optimizer.evaluated", evaluated);
      ("optimizer.pruned_alpha_beta", csum (fun c -> c.Layers.pruned));
      ("optimizer.build_errors", csum (fun c -> c.Layers.build_errors));
      ("optimizer.eval_errors", eval_errors);
      ("optimizer.evaluated_per_examined", ratio evaluated examined);
      ("optimizer.prune_ratio", ratio (csum (fun c -> c.Layers.pruned)) examined);
      ("optimizer.eval_error_ratio", ratio eval_errors (evaluated +. eval_errors));
      ("optimizer.us_per_examined", 1e6 *. ratio search examined);
      ("optimizer.tile_candidates", counter "optimizer.tile_candidates");
      ("optimizer.unroll_candidates", counter "optimizer.unroll_candidates");
      ("optimizer.orders_kept", counter "optimizer.orders_kept");
      ("optimizer.orders_dropped", counter "optimizer.orders_dropped");
      ("order_trie.s", total "order_trie.candidates");
      ("order_trie.nodes_visited", csum (fun c -> c.Layers.trie_visited));
      ("order_trie.nodes_pruned", csum (fun c -> c.Layers.trie_pruned));
      ("order_trie.candidates", csum (fun c -> c.Layers.trie_candidates));
      ("model.context_us", per_call 1e6 "model.context");
      ("model.score_ns", per_call 1e9 "model.score");
      ("model.evaluate_ns", per_call 1e9 "model.evaluate");
      ("model.score_share_est", ratio score_s search);
      ("model.evaluations", counter "model.evaluations");
      ("model.evaluate_rejected", counter "model.evaluate_rejected");
      ( "model.probe_hit_ratio",
        ratio (counter "model.probe_hits") (counter "model.probe_hits" +. counter "model.probe_misses") );
    ]
    @ List.concat_map span_pair [ "parse"; "gate"; "cache"; "compute"; "recheck" ]
    @ [
        ("serve.hits", counter "serve.hits");
        ("serve.computed", counter "serve.computed");
        ("serve.errors", counter "serve.errors");
        ("serve.cache_stores", counter "serve.cache_stores");
        ("cache.hit_ratio", ratio (counter "serve.hits") (counter "serve.hits" +. counter "serve.computed"));
        ("transfer.seeded", counter "transfer.seeded");
        ("transfer.seed_rejected", counter "transfer.seed_rejected");
        ("transfer.alpha_ratio", ratio alpha_sum alpha_n);
        ("fingerprint.request_us", per_call 1e6 "fingerprint.request");
        ("codec.encode_mapping_us", per_call 1e6 "codec.encode_mapping");
        ("codec.decode_workload_us", per_call 1e6 "codec.decode_workload");
        ("parpool.job_s", job_s);
        ("parpool.job_count", job_n);
        ("parpool.dispatched", counter "parpool.dispatched");
        ("parpool.respawned", counter "parpool.respawned");
        ("server.wait_s", ratio (computed_latency -. job_s) job_n);
        ("analysis.recheck_s", total "analysis.recheck");
        ("analysis.recheck_rejected", csum (fun c -> if c.Layers.recheck_rejected then 1 else 0));
        ("telemetry.overhead_frac", median overheads);
        ("telemetry.overhead_q1", quantile 0.25 overheads);
        ("telemetry.overhead_q3", quantile 0.75 overheads);
        ("check.edp_worse_layers", float_of_int worse);
      ]
  in
  let result =
    {
      problems = problems @ layer_problems;
      attempted = List.length samples;
      failed = List.length samples - List.length passed;
      metrics;
    }
  in
  let section =
    J.Obj
      [
        ("workload", J.String workload);
        ("seed", J.Int seed);
        ("spans", Trace.to_json ~workload);
        ("daemon_telemetry", tel);
        ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) metrics));
      ]
  in
  (result, section)

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let result_json table r =
  J.Obj
    [
      ("correct", J.Bool (r.problems = []));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, unit) ->
               let value =
                 match List.assoc_opt name r.metrics with
                 | Some v when Float.is_finite v -> J.Float v
                 | _ -> J.Null
               in
               (name, J.Obj [ ("value", value); ("unit", J.String unit) ]))
             table) );
    ]

let report ~workload table r =
  Printf.eprintf "== %s: %d requests, %d failed the output check\n" workload r.attempted r.failed;
  List.iter (fun p -> Printf.eprintf "   problem: %s\n" p) r.problems;
  List.iter
    (fun (name, unit) ->
      Printf.eprintf "   %-34s %16.6g %s\n" name (Option.value ~default:nan (List.assoc_opt name r.metrics)) unit)
    table;
  print_endline (J.to_string (result_json table r))

(* Every metric of the table present, finite and unit-bearing. *)
let complete table r =
  List.for_all
    (fun (name, unit) ->
      unit <> "" && match List.assoc_opt name r.metrics with Some v -> Float.is_finite v | None -> false)
    table

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

(* The daemon binary is built next to this executable:
   _build/default/bench/perf/perf.exe and _build/default/bin/sunstone_cli.exe. *)
let cli_path () =
  let build_root = Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name)) in
  Filename.concat build_root (Filename.concat "bin" "sunstone_cli.exe")

(* Returns the exit code. *)
let write_reference env =
  let reqs =
    List.sort_uniq (fun a b -> compare a.Mix.key b.Mix.key)
      (List.concat_map (fun m -> m.Mix.distinct) (Mix.all @ Mix.smoke))
  in
  let samples =
    with_daemon env (Mix.cold "reference" reqs) ~metrics:None (fun d -> drive d ~rep:0 [| Array.of_list reqs |])
  in
  match check samples with
  | [], passed ->
    Check.write_reference (List.map (fun (s, c) -> (s.req.Mix.key, c.Check.edp)) passed);
    Printf.eprintf "wrote %d cold EDPs to %s\n" (List.length passed) Check.reference_path;
    0
  | problems, _ ->
    List.iter (fun p -> Printf.eprintf "reference: %s\n" p) problems;
    1

(* Runs the selected workloads and returns the exit code. *)
let run env ~workload ~seed ~seconds ~trace ~out ~smoke =
  let workloads =
    if smoke then Some Mix.smoke
    else if workload = "all" then Some Mix.all
    else Option.map (fun m -> [ m ]) (Mix.find workload)
  in
  match (Check.load_reference (), workloads) with
  | Error e, _ ->
    Printf.eprintf "perf: cannot read %s: %s\n" Check.reference_path e;
    2
  | _, None ->
    Printf.eprintf "perf: unknown workload %S\n" workload;
    2
  | Ok reference, Some workloads ->
    let env = { env with reference } in
    let seconds = if smoke then 0.0 else seconds in
    let ok = ref true in
    let sections = ref [] in
    List.iter
      (fun (m : Mix.t) ->
        let untraced () =
          let r = run_untraced env m ~seed ~seconds in
          report ~workload:m.Mix.name end_to_end r;
          ok := !ok && r.problems = [] && ((not smoke) || complete end_to_end r)
        in
        let traced () =
          let r, section = run_traced env m ~seed in
          sections := section :: !sections;
          report ~workload:m.Mix.name per_layer r;
          ok := !ok && r.problems = [] && ((not smoke) || complete per_layer r)
        in
        if smoke then begin
          untraced ();
          traced ()
        end
        else if trace then traced ()
        else untraced ())
      workloads;
    if !sections <> [] then
      Out_channel.with_open_text out (fun oc ->
          Out_channel.output_string oc
            (J.to_string_pretty
               (J.Obj [ ("v", J.Int 1); ("kind", J.String "perf-trace"); ("runs", J.List (List.rev !sections)) ]));
          Out_channel.output_char oc '\n');
    if smoke then prerr_endline (if !ok then "smoke: ok" else "smoke: FAILED");
    if !ok then 0 else 1

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 30.0 and trace = ref 0 in
  let out = ref (Filename.concat ".perf_run" "trace.json") in
  let smoke = ref false and write_ref = ref false in
  let usage =
    "perf.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke] \
     [--write-reference]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all (default)");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs (default 1)");
      ("--seconds", Arg.Set_float seconds, "S how long a timed run measures (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 run the traced per-layer measurement instead (default 0)");
      ("--out", Arg.Set_string out, "FILE where the traced run writes its spans (default .perf_run/trace.json)");
      ("--smoke", Arg.Set smoke, " quick self-check of every code path on tiny inputs");
      ("--write-reference", Arg.Set write_ref, " regenerate bench/perf/reference.json from cold searches");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let cli = cli_path () in
  if not (Sys.file_exists cli) then begin
    Printf.eprintf "perf: daemon binary %s not found; build it with `dune build`\n" cli;
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p ".perf_run";
  let dir = Filename.concat ".perf_run" (Printf.sprintf "run%d" (Unix.getpid ())) in
  mkdir_p dir;
  let env = { cli; dir; reference = Hashtbl.create 1 } in
  exit
    (Fun.protect ~finally:(fun () -> remove_tree dir) (fun () ->
         if !write_ref then write_reference env
         else
           run env ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out
             ~smoke:!smoke))
