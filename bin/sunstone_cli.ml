(* Command-line front end for the Sunstone scheduler.

   sunstone list                         - workloads and architectures
   sunstone reuse -w conv1d              - Table III-style reuse inference
   sunstone schedule -w resnet18/conv2_x -a simba [...]
   sunstone compare -w mttkrp/nell2 -a conventional -t sunstone,tl-fast
   sunstone batch -i reqs.jsonl -o out.jsonl --cache-dir ~/.cache/sunstone [--jobs 4]
   sunstone serve --listen unix:/tmp/sun.sock [--jobs 4] [--max-queue 64]
   sunstone client --connect unix:/tmp/sun.sock -i reqs.jsonl -o out.jsonl
   sunstone export -w matmul -a simba -o mapping.json
   sunstone check [--admissibility] [--json]
   sunstone check --mapping mapping.json
   sunstone experiment fig6              - run a paper experiment *)

open Cmdliner
module W = Sun_tensor.Workload
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Opt = Sun_core.Optimizer
module Runners = Sun_experiments.Runners
module Registry = Sun_serve.Registry
module Tel = Sun_telemetry.Metrics

(* ------------------------------------------------------------------ *)
(* Workload / architecture resolution (shared table: Sun_serve.Registry) *)
(* ------------------------------------------------------------------ *)

let find_workload name =
  Result.map_error (fun m -> `Msg m) (Registry.find_workload name)

let find_arch name = Result.map_error (fun m -> `Msg m) (Registry.find_arch name)

(* ------------------------------------------------------------------ *)
(* Common args                                                         *)
(* ------------------------------------------------------------------ *)

let workload_arg =
  let doc = "Workload name (see `sunstone list`)." in
  Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let arch_arg =
  let doc = "Architecture preset: conventional, simba, diannao or toy." in
  Arg.(value & opt string "conventional" & info [ "a"; "arch" ] ~docv:"ARCH" ~doc)

(* [--beam] and [--top-down] as the optimizer config they select. A beam
   narrower than 1 keeps no prefix between passes, which the pipeline
   rejects as SA021, so the flag refuses it too. *)
let config_arg =
  let beam_width =
    let parse s =
      Result.bind (Arg.conv_parser Arg.int s) (fun n ->
          if n >= 1 then Ok n else Error (`Msg (Printf.sprintf "beam width %d (must be >= 1)" n)))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let beam_arg =
    let doc = "Beam width of the level-by-level search, at least 1." in
    Arg.(
      value & opt beam_width Opt.default_config.Opt.beam_width & info [ "beam" ] ~docv:"N" ~doc)
  in
  let top_down_arg =
    let doc = "Optimize top-down instead of bottom-up (Table VI ablation)." in
    Arg.(value & flag & info [ "top-down" ] ~doc)
  in
  let config beam_width top_down =
    {
      Opt.default_config with
      Opt.beam_width;
      direction = (if top_down then Opt.Top_down else Opt.Bottom_up);
    }
  in
  Term.(const config $ beam_arg $ top_down_arg)

let loopnest_arg =
  let doc = "Also print the mapped loop nest as pseudocode." in
  Arg.(value & flag & info [ "emit-loopnest" ] ~doc)

let metrics_arg =
  let doc =
    "Enable telemetry and write the run's metrics (counters and latency histograms) to $(docv) \
     as JSON when the command finishes; \"-\" writes stdout. `sunstone stats $(docv)` \
     pretty-prints the file."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* Telemetry is off by default; [--metrics FILE] turns it on for the span of
   the wrapped command and dumps the registry on the way out — including the
   error path, so a failing run still leaves its counters behind. *)
let with_metrics metrics run =
  match metrics with
  | None -> run ()
  | Some path ->
    Tel.set_enabled true;
    Tel.reset ();
    Fun.protect
      ~finally:(fun () ->
        let text = Tel.to_json (Tel.snapshot ()) ^ "\n" in
        Tel.set_enabled false;
        if path = "-" then print_string text
        else
          match open_out path with
          | exception Sys_error m -> Printf.eprintf "cannot write metrics to %s: %s\n" path m
          | oc -> Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text))
      run

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_endline "Workloads:";
    List.iter (fun (name, w) -> Printf.printf "  %-24s %s\n" name w.W.name) (Registry.workloads ());
    print_endline "";
    print_endline "Architectures:";
    List.iter
      (fun (name, a) -> Printf.printf "  %-24s %s\n" name a.Sun_arch.Arch.arch_name)
      Registry.architectures;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in workloads and architecture presets")
    Term.(const run $ const ())

let reuse_cmd =
  let run workload =
    match find_workload workload with
    | Error (`Msg m) ->
      prerr_endline m;
      1
    | Ok w ->
      Format.printf "%a@." Sun_tensor.Workload.pp w;
      Format.printf "%a@." Sun_tensor.Reuse.pp (Sun_tensor.Reuse.analyze w);
      0
  in
  Cmd.v
    (Cmd.info "reuse" ~doc:"Infer each operand's reuse pattern (paper Table III)")
    Term.(const run $ workload_arg)

let schedule_cmd =
  let run workload arch config emit_loopnest metrics =
    with_metrics metrics @@ fun () ->
    match (find_workload workload, find_arch arch) with
    | Error (`Msg m), _ | _, Error (`Msg m) ->
      prerr_endline m;
      1
    | Ok w, Ok a -> (
      match Opt.optimize ~config w a with
      | Error msg ->
        Printf.eprintf "no valid mapping: %s\n" msg;
        1
      | Ok r ->
        Printf.printf "workload:     %s\narchitecture: %s\n\n" w.W.name a.Sun_arch.Arch.arch_name;
        Printf.printf "%s\n\n" (M.to_string r.Opt.mapping);
        Format.printf "%a@." Model.pp_cost r.Opt.cost;
        Printf.printf
          "\nsearch: %d candidates examined, %d evaluated, %d pruned, %d build errors, %d eval \
           errors, %.2fs\n"
          r.Opt.stats.Opt.examined r.Opt.stats.Opt.evaluated r.Opt.stats.Opt.pruned_alpha_beta
          r.Opt.stats.Opt.build_errors r.Opt.stats.Opt.eval_errors r.Opt.stats.Opt.wall_seconds;
        if emit_loopnest then begin
          print_newline ();
          print_string (Sun_mapping.Loopnest.emit w r.Opt.mapping)
        end;
        0)
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Find the best dataflow mapping for a workload on an architecture")
    Term.(
      const run $ workload_arg $ arch_arg $ config_arg $ loopnest_arg $ metrics_arg)

let tools =
  [
    ("sunstone", Runners.sunstone ());
    ("tl-fast", Runners.timeloop_fast);
    ("tl-slow", Runners.timeloop_slow);
    ("dmaze-fast", Runners.dmaze_fast);
    ("dmaze-slow", Runners.dmaze_slow);
    ("interstellar", Runners.interstellar);
    ("cosa", Runners.cosa);
  ]

let compare_cmd =
  let tools_arg =
    let doc = "Comma-separated mappers: sunstone, tl-fast, tl-slow, dmaze-fast, dmaze-slow, interstellar, cosa." in
    Arg.(value & opt string "sunstone,tl-fast" & info [ "t"; "tools" ] ~docv:"TOOLS" ~doc)
  in
  let run workload arch tool_names =
    match (find_workload workload, find_arch arch) with
    | Error (`Msg m), _ | _, Error (`Msg m) ->
      prerr_endline m;
      1
    | Ok w, Ok a ->
      let names = String.split_on_char ',' tool_names in
      let selected =
        List.filter_map (fun n -> Option.map (fun t -> t) (List.assoc_opt (String.trim n) tools)) names
      in
      if selected = [] then begin
        prerr_endline "no known tools selected";
        1
      end
      else begin
        Printf.printf "%-14s %-12s %-10s %-10s %s\n" "tool" "EDP" "time" "examined" "status";
        List.iter
          (fun (t : Runners.tool) ->
            let o = t.Runners.run w a in
            Printf.printf "%-14s %-12s %-10s %-10d %s\n" t.Runners.tool_name (Runners.edp_cell o)
              (Runners.time_cell o) o.Sun_baselines.Mapper.examined
              (if o.Sun_baselines.Mapper.valid then "ok" else "INVALID"))
          selected;
        0
      end
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run several mappers on one workload and compare EDP / time")
    Term.(const run $ workload_arg $ arch_arg $ tools_arg)

let batch_cmd =
  let input_arg =
    let doc = "JSONL request file; one {\"workload\":NAME,\"arch\":ARCH,...} per line. \"-\" reads stdin." in
    Arg.(required & opt (some string) None & info [ "i"; "input" ] ~docv:"FILE" ~doc)
  in
  let output_arg =
    let doc = "JSONL response file. \"-\" writes stdout." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let cache_dir_arg =
    let doc = "Persist schedules under $(docv) (one JSON file per request fingerprint); later runs reuse them." in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let no_cache_arg =
    let doc = "Disable caching entirely: every request runs a fresh search." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let jobs_arg =
    let doc =
      "Compute cache misses on $(docv) forked worker processes. Responses keep input order and \
       are identical at every $(docv) (up to wall_s)."
    in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let run input output cache_dir no_cache jobs config metrics =
    with_metrics metrics @@ fun () ->
    let cache =
      if no_cache then None else Some (Sun_serve.Cache.create ?dir:cache_dir ())
    in
    match Sun_serve.Pipeline.run_files ?cache ~config ~jobs ~input ~output () with
    | exception Sys_error m ->
      Printf.eprintf "cannot run batch: %s\n" m;
      1
    | summary ->
      Printf.eprintf "%s\n" (Sun_serve.Pipeline.summary_line summary);
      if summary.Sun_serve.Pipeline.errors > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Schedule a JSONL stream of requests through the mapping cache. Cache misses whose \
          shape family has a cached member are warm-started from the nearest neighbor's \
          mapping; $(b,--no-cache) runs every request as a cold search.")
    Term.(
      const run $ input_arg $ output_arg $ cache_dir_arg $ no_cache_arg $ jobs_arg $ config_arg
      $ metrics_arg)

let export_cmd =
  let output_arg =
    let doc = "Destination JSON file. \"-\" writes stdout." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run workload arch output config =
    match (find_workload workload, find_arch arch) with
    | Error (`Msg m), _ | _, Error (`Msg m) ->
      prerr_endline m;
      1
    | Ok w, Ok a -> (
      match Opt.optimize ~config w a with
      | Error msg ->
        Printf.eprintf "no valid mapping: %s\n" msg;
        1
      | Ok r ->
        let doc =
          Sun_serve.Json.Obj
            [
              ("v", Sun_serve.Json.Int Sun_serve.Codec.version);
              ("kind", Sun_serve.Json.String "export");
              ("workload_name", Sun_serve.Json.String workload);
              ("arch_name", Sun_serve.Json.String arch);
              ("fingerprint", Sun_serve.Json.String (Sun_serve.Fingerprint.request ~config w a));
              ("workload", Sun_serve.Codec.encode_workload w);
              ("config", Sun_serve.Codec.encode_config config);
              ("mapping", Sun_serve.Codec.encode_mapping r.Opt.mapping);
              ("cost", Sun_serve.Codec.encode_cost r.Opt.cost);
            ]
        in
        let text = Sun_serve.Json.to_string_pretty doc ^ "\n" in
        if output = "-" then begin
          print_string text;
          0
        end
        else begin
          match open_out output with
          | exception Sys_error m ->
            Printf.eprintf "cannot write %s: %s\n" output m;
            1
          | oc ->
            Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text);
            0
        end)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Schedule one workload and write the mapping, cost and fingerprint as JSON")
    Term.(const run $ workload_arg $ arch_arg $ output_arg $ config_arg)

(* ------------------------------------------------------------------ *)
(* sunstone check: the static-analysis passes                           *)
(* ------------------------------------------------------------------ *)

module Diag = Sun_analysis.Diagnostic
module J = Sun_serve.Json

(* One row of check output: which pass ran, on what, and what it found. *)
type check_result = { pass : string; subject : string; note : string; diags : Diag.t list }

let check_json_of_result r =
  J.Obj
    ([ ("pass", J.String r.pass); ("subject", J.String r.subject) ]
    @ (if r.note = "" then [] else [ ("note", J.String r.note) ])
    @ [ ("diagnostics", J.List (List.map Sun_serve.Codec.encode_diagnostic r.diags)) ])

let print_check_results ~json results =
  let all_diags = List.concat_map (fun r -> r.diags) results in
  let errors = Diag.errors all_diags in
  if json then begin
    let doc =
      J.Obj
        [
          ("v", J.Int Sun_serve.Codec.version);
          ("kind", J.String "check");
          ("passes", J.List (List.map check_json_of_result results));
          ("errors", J.Int (List.length errors));
        ]
    in
    print_endline (J.to_string_pretty doc)
  end
  else begin
    List.iter
      (fun r ->
        if r.diags <> [] || r.note <> "" then begin
          Printf.printf "%s: %s%s\n" r.pass r.subject
            (if r.note = "" then "" else " (" ^ r.note ^ ")");
          if r.diags <> [] then Format.printf "%a@." Diag.pp_list r.diags
        end)
      results;
    Printf.printf "check: %d subject(s), %s\n" (List.length results) (Diag.summary all_diags)
  end;
  if errors <> [] then 1 else 0

let read_file file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Legality of a mapping document (an `sunstone export` file or a bare
   Codec mapping next to a workload): structural checks always, capacity
   and fanout when the architecture is recoverable from "arch_name". *)
let check_mapping_file file =
  let ( let* ) = Result.bind in
  let* text = try Ok (read_file file) with Sys_error m -> Error m in
  let* doc = J.of_string text in
  let* wjson = Result.map_error (fun e -> "export document: " ^ e) (J.field "workload" doc) in
  let* w = Sun_serve.Codec.decode_workload wjson in
  let* mjson = Result.map_error (fun e -> "export document: " ^ e) (J.field "mapping" doc) in
  let* levels = Sun_serve.Codec.decode_mapping_raw mjson in
  let arch =
    match J.member "arch_name" doc with
    | Some (J.String name) -> (
      match Registry.find_arch name with Ok a -> Some a | Error _ -> None)
    | _ -> None
  in
  match arch with
  | Some a ->
    Ok
      {
        pass = "legality";
        subject = Printf.sprintf "%s on %s" w.W.name a.Sun_arch.Arch.arch_name;
        note = "";
        diags = Sun_analysis.Legality.check_all w a levels;
      }
  | None ->
    Ok
      {
        pass = "legality";
        subject = w.W.name;
        note = "no architecture named; structural checks only";
        diags = Sun_analysis.Legality.check_levels w levels;
      }

let check_cmd =
  let mapping_arg =
    let doc = "Check the legality of one exported mapping document instead of the registry." in
    Arg.(value & opt (some string) None & info [ "mapping" ] ~docv:"FILE" ~doc)
  in
  let admissibility_arg =
    let doc =
      "Also run the alpha-beta bound admissibility pass: exhaustive differential search on a \
       suite of small workloads."
    in
    Arg.(value & flag & info [ "admissibility" ] ~doc)
  in
  let json_arg =
    let doc = "Emit machine-readable JSON instead of human-readable lines." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let list_rules_arg =
    let doc =
      "Print the full SA diagnostic code table (code, severity, summary, scope) and exit."
    in
    Arg.(value & flag & info [ "list-rules" ] ~doc)
  in
  let list_rules ~json =
    let table = Sun_analysis.Diagnostic.rule_table () in
    if json then begin
      let entries =
        List.map
          (fun (id, sev, summary, scope) ->
            Printf.sprintf
              "{\"code\":%S,\"severity\":%S,\"summary\":%S,\"scope\":%S}" id sev summary
              scope)
          table
      in
      Printf.printf "[%s]\n" (String.concat "," entries)
    end
    else
      List.iter
        (fun (id, sev, summary, scope) ->
          Printf.printf "%-6s %-8s %-72s %s\n" id sev summary scope)
        table;
    0
  in
  let run mapping_file admissibility json list_rules_flag =
    if list_rules_flag then list_rules ~json
    else
    match mapping_file with
    | Some file -> (
      match check_mapping_file file with
      | Error msg ->
        Printf.eprintf "cannot check %s: %s\n" file msg;
        1
      | Ok r -> print_check_results ~json [ r ])
    | None ->
      let wellformed =
        List.map
          (fun (name, a) ->
            { pass = "wellformed"; subject = name; note = ""; diags = Sun_analysis.Wellformed.check_arch a })
          Registry.architectures
        @ List.map
            (fun (name, w) ->
              {
                pass = "wellformed";
                subject = name;
                note = "";
                diags = Sun_analysis.Wellformed.check_workload w;
              })
            (Registry.workloads ())
      in
      let pruning =
        List.map
          (fun (r : Sun_analysis.Pruning.report) ->
            {
              pass = "pruning";
              subject = r.Sun_analysis.Pruning.workload;
              note =
                Printf.sprintf "%d orderings, %d dropped dims probed"
                  r.Sun_analysis.Pruning.orderings r.Sun_analysis.Pruning.dropped_dims_checked;
              diags = r.Sun_analysis.Pruning.diagnostics;
            })
          (Sun_analysis.Pruning.check_many (Registry.workloads ()))
      in
      let admissible =
        if not admissibility then []
        else
          List.map
            (fun (r : Sun_analysis.Admissibility.report) ->
              {
                pass = "admissibility";
                subject =
                  Printf.sprintf "%s on %s" r.Sun_analysis.Admissibility.workload
                    r.Sun_analysis.Admissibility.arch;
                note =
                  Printf.sprintf "%d mappings enumerated, exhaustive EDP %.4e, search EDP %.4e"
                    r.Sun_analysis.Admissibility.mappings_checked
                    r.Sun_analysis.Admissibility.exhaustive_edp
                    r.Sun_analysis.Admissibility.search_edp;
                diags = r.Sun_analysis.Admissibility.diagnostics;
              })
            (Sun_analysis.Admissibility.check_suite ())
      in
      print_check_results ~json (wellformed @ pruning @ admissible)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the static-analysis passes: mapping legality, pruning soundness, bound \
          admissibility, config/arch well-formedness, and (with $(b,--list-rules)) the SA code \
          table")
    Term.(const run $ mapping_arg $ admissibility_arg $ json_arg $ list_rules_arg)

(* ------------------------------------------------------------------ *)
(* sunstone audit: the mapspace auditor                                 *)
(* ------------------------------------------------------------------ *)

let audit_cmd =
  let module Audit = Sun_analysis.Audit in
  let kernels_arg =
    let doc =
      "Audit only the first $(docv) bundled kernels (cheapest first); 0 means all of them."
    in
    Arg.(value & opt int 0 & info [ "kernels" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Emit machine-readable JSON instead of human-readable lines." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let inject_arg =
    let doc =
      "Test hook: deliberately break the pruning the oracles audit ($(b,order) drops a \
       load-bearing trie candidate, $(b,frontier) shrinks a tiling frontier) to prove the \
       auditor fires. The exit code must become non-zero."
    in
    let inject_conv =
      Arg.enum
        [ ("order", Audit.Drop_order_candidate); ("frontier", Audit.Shrink_frontier) ]
    in
    Arg.(value & opt (some inject_conv) None & info [ "inject" ] ~docv:"RULE" ~doc)
  in
  let run kernels json inject metrics =
    with_metrics metrics @@ fun () ->
    let inject = Option.value ~default:Audit.No_injection inject in
    let audits =
      List.map
        (fun (r : Audit.kernel_report) ->
          {
            pass = "audit";
            subject = Printf.sprintf "%s on %s" r.Audit.kernel r.Audit.arch;
            note =
              Printf.sprintf
                "%d/%d orders kept, %d frontier tiles, %d mappings enumerated, exhaustive EDP \
                 %.6e, pruned EDP %.6e"
                r.Audit.orders_kept r.Audit.orders_total r.Audit.frontier_checked
                r.Audit.mappings_enumerated r.Audit.exhaustive_edp r.Audit.search_edp;
            diags = r.Audit.diagnostics;
          })
        (Audit.check_kernels ~inject ~limit:kernels ())
    in
    print_check_results ~json audits
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Run the mapspace auditor: differential trie/tiling oracles against brute force")
    Term.(const run $ kernels_arg $ json_arg $ inject_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* sunstone stats: pretty-print a --metrics dump                        *)
(* ------------------------------------------------------------------ *)

(* Rebuild a [Tel.snapshot] from the JSON that [Tel.to_json] wrote. Lives
   here rather than in [Sun_telemetry] because the telemetry library is
   dependency-free by design — it cannot see [Sun_serve.Json]. *)
let snapshot_of_json doc =
  let ( let* ) = Result.bind in
  let* () =
    match J.member "kind" doc with
    | Some (J.String "telemetry") -> Ok ()
    | _ -> Error "not a telemetry document (expected \"kind\": \"telemetry\")"
  in
  let entries what = function
    | None -> Ok []
    | Some (J.Obj fields) -> Ok fields
    | Some _ -> Error (Printf.sprintf "%S: expected an object" what)
  in
  let rec map_entries f = function
    | [] -> Ok []
    | (k, v) :: rest ->
      let* x = Result.map_error (fun e -> Printf.sprintf "%s: %s" k e) (f v) in
      let* xs = map_entries f rest in
      Ok ((k, x) :: xs)
  in
  let* counter_fields = entries "counters" (J.member "counters" doc) in
  let* counters = map_entries J.as_int counter_fields in
  let* hist_fields = entries "histograms" (J.member "histograms" doc) in
  let* hists =
    map_entries
      (fun v ->
        let* count = Result.bind (J.field "count" v) J.as_int in
        let* sum = Result.bind (J.field "sum" v) J.as_float in
        let* h_min = Result.bind (J.field "min" v) J.as_float in
        let* h_max = Result.bind (J.field "max" v) J.as_float in
        let* bucket_list = Result.bind (J.field "buckets" v) J.as_list in
        let* buckets = map_entries J.as_int (List.map (fun b -> ("bucket", b)) bucket_list) in
        Ok
          {
            Tel.h_count = count;
            h_sum = sum;
            h_min;
            h_max;
            h_buckets = Array.of_list (List.map snd buckets);
          })
      hist_fields
  in
  Ok { Tel.s_counters = counters; s_hists = hists }

let stats_cmd =
  let file_arg =
    let doc = "Metrics JSON file written by --metrics; \"-\" reads stdin." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let text =
      if file = "-" then Ok (In_channel.input_all stdin)
      else match read_file file with t -> Ok t | exception Sys_error m -> Error m
    in
    let snap = Result.bind text (fun t -> Result.bind (J.of_string t) snapshot_of_json) in
    match snap with
    | Error msg ->
      Printf.eprintf "cannot read metrics from %s: %s\n" file msg;
      1
    | Ok snap ->
      print_string (Tel.to_table snap);
      0
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Pretty-print a telemetry metrics file (see --metrics) as tables")
    Term.(const run $ file_arg)

let experiment_cmd =
  let exp_arg =
    let doc = "Experiment id: table1, table3, table6, fig6, fig7, fig8, fig9." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let run name =
    match List.assoc_opt name Sun_experiments.Figures.all with
    | Some driver ->
      print_string (driver ());
      print_newline ();
      0
    | None ->
      Printf.eprintf "unknown experiment %S\n" name;
      1
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate one of the paper's tables or figures")
    Term.(const run $ exp_arg)

(* ------------------------------------------------------------------ *)
(* serve / client: the long-lived scheduling daemon                    *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let listen_arg =
    let doc = "Address to listen on: unix:PATH, tcp:HOST:PORT or HOST:PORT." in
    Arg.(required & opt (some string) None & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let cache_dir_arg =
    let doc = "Persist schedules under $(docv); the daemon owns the cache for its lifetime." in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let no_cache_arg =
    let doc = "Disable caching entirely: every request runs a fresh search." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let jobs_arg =
    let doc =
      "Compute on $(docv) forked worker processes. Even 1 keeps compute off the accept loop."
    in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let max_queue_arg =
    let doc =
      "Admission bound: a request arriving while $(docv) admitted requests are unanswered is \
       shed with a status:\"overloaded\" response instead of queued. Unbounded by default."
    in
    Arg.(value & opt (some int) None & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let run listen cache_dir no_cache jobs max_queue config metrics =
    match Sun_serve.Server.parse_listen listen with
    | Error msg ->
      Printf.eprintf "cannot serve: %s\n" msg;
      1
    | Ok addr -> (
      let cache = if no_cache then None else Some (Sun_serve.Cache.create ?dir:cache_dir ()) in
      let drain = ref false in
      let force = ref false in
      let hup = ref false in
      (* first SIGTERM/SIGINT drains gracefully; a second escalates to an
         immediate shutdown even if a client never reads its responses *)
      let stop _ = if !drain then force := true else drain := true in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> hup := true));
      (* a `stats` control request reports the live registry, so telemetry
         is on for the daemon's lifetime even without --metrics *)
      if metrics = None then begin
        Tel.set_enabled true;
        Tel.reset ()
      end;
      let metrics_path = match metrics with Some p when p <> "-" -> Some p | _ -> None in
      match Sun_serve.Server.listener addr with
      | Error msg ->
        Printf.eprintf "cannot listen on %s: %s\n" listen msg;
        1
      | Ok listen_fd ->
        Fun.protect ~finally:(fun () -> Sun_serve.Server.close_listener addr listen_fd)
        @@ fun () ->
        with_metrics metrics @@ fun () ->
        Printf.eprintf "sunstone: serving on %s (pid %d)\n%!" listen Unix.(getpid ());
        let s =
          Sun_serve.Server.serve ?cache ~config ~jobs ?max_queue ~drain_flag:drain
            ~force_flag:force ~hup_flag:hup ?metrics_path ~listen_fd ()
        in
        Printf.eprintf
          "sunstone: drained after %.2fs: %d connections, %d requests (%d hits, %d computed, \
           %d errors, %d overloaded, %d expired)\n"
          s.Sun_serve.Server.wall_s s.Sun_serve.Server.connections s.Sun_serve.Server.requests
          s.Sun_serve.Server.hits s.Sun_serve.Server.computed s.Sun_serve.Server.errors
          s.Sun_serve.Server.overloaded s.Sun_serve.Server.expired;
        0)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a long-lived scheduling daemon: the batch pipeline behind a socket, with \
          per-request deadlines, admission control and graceful drain on SIGTERM. Like batch, \
          cache misses are warm-started from nearest-neighbor cached mappings of the same \
          shape family ($(b,--no-cache) disables both)")
    Term.(
      const run $ listen_arg $ cache_dir_arg $ no_cache_arg $ jobs_arg $ max_queue_arg $ config_arg
      $ metrics_arg)

let client_cmd =
  let connect_arg =
    let doc = "Daemon address: unix:PATH, tcp:HOST:PORT or HOST:PORT." in
    Arg.(required & opt (some string) None & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  let input_arg =
    let doc = "JSONL request file replayed to the daemon. \"-\" reads stdin." in
    Arg.(required & opt (some string) None & info [ "i"; "input" ] ~docv:"FILE" ~doc)
  in
  let output_arg =
    let doc = "JSONL response file. \"-\" writes stdout." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let read_lines path =
    let ic = if path = "-" then stdin else open_in path in
    Fun.protect
      ~finally:(fun () -> if path <> "-" then close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  let run conn input output =
    (* a daemon shedding or killing the connection mid-replay must surface
       as EPIPE inside [replay], not kill this process *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    match Sun_serve.Server.parse_listen conn with
    | Error msg ->
      Printf.eprintf "cannot connect: %s\n" msg;
      1
    | Ok addr -> (
      match read_lines input with
      | exception Sys_error msg ->
        Printf.eprintf "cannot read %s: %s\n" input msg;
        1
      | lines -> (
        match Sun_serve.Server.connect addr with
        | Error msg ->
          Printf.eprintf "cannot connect to %s: %s\n" conn msg;
          1
        | Ok fd -> (
          let responses = Sun_serve.Server.replay fd lines in
          let write oc = List.iter (fun r -> output_string oc (r ^ "\n")) responses in
          match
            if output = "-" then write stdout
            else
              let oc = open_out output in
              Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> write oc)
          with
          | () -> 0
          | exception Sys_error msg ->
            Printf.eprintf "cannot write %s: %s\n" output msg;
            1)))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Replay a JSONL request file through a running sunstone daemon and collect responses")
    Term.(const run $ connect_arg $ input_arg $ output_arg)

let () =
  let info =
    Cmd.info "sunstone" ~version:"1.0.0"
      ~doc:"Scalable and versatile scheduler for tensor algebra on spatial accelerators"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            reuse_cmd;
            schedule_cmd;
            compare_cmd;
            batch_cmd;
            serve_cmd;
            client_cmd;
            export_cmd;
            check_cmd;
            audit_cmd;
            stats_cmd;
            experiment_cmd;
          ]))
