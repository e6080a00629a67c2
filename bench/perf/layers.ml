(* In-process per-layer measurements for the traced run: the benchmark
   calls each layer's public functions on one request's inputs, inside a
   span per call (or per batch of repeated calls), and reads the layer's
   own counters. *)

module Opt = Sun_core.Optimizer
module Model = Sun_cost.Model
module Tel = Sun_telemetry.Metrics
module Codec = Sun_serve.Codec

type counts = {
  examined : int;
  evaluated : int;
  pruned : int;
  build_errors : int;
  eval_errors : int;
  trie_visited : int;
  trie_pruned : int;
  trie_candidates : int;
  recheck_rejected : bool;
}

let micro_reps = 200
let model_reps = 1000

(* Measures one request. [telemetry_first] alternates, request by request,
   whether the telemetry-on search runs before or after the telemetry-off
   one, so drift in machine speed does not bias the paired overhead. *)
let measure ~workload ~telemetry_first (r : Mix.request) =
  let request = r.Mix.key in
  Trace.record ~workload ~request "layers.request" @@ fun parent ->
  let span ?(calls = 1) name f = Trace.record ~parent ~calls ~workload ~request name (fun _ -> f ()) in
  let doc = Codec.encode_workload r.Mix.w in
  span ~calls:micro_reps "codec.decode_workload" (fun () ->
      for _ = 1 to micro_reps do
        ignore (Codec.decode_workload doc)
      done);
  span ~calls:micro_reps "fingerprint.request" (fun () ->
      for _ = 1 to micro_reps do
        ignore (Sun_serve.Fingerprint.request r.Mix.w r.Mix.a)
      done);
  let trie, trie_stats =
    span "order_trie.candidates" (fun () -> Sun_core.Order_trie.candidates_with_stats r.Mix.w)
  in
  let search () = Opt.optimize r.Mix.w r.Mix.a in
  let plain () = span "optimizer.optimize" search in
  let instrumented () =
    Tel.set_enabled true;
    Tel.reset ();
    Fun.protect ~finally:(fun () -> Tel.set_enabled false) (fun () -> span "optimizer.optimize_telemetry" search)
  in
  let result =
    if telemetry_first then begin
      ignore (instrumented ());
      plain ()
    end
    else begin
      let x = plain () in
      ignore (instrumented ());
      x
    end
  in
  match result with
  | Error msg -> Error (Printf.sprintf "%s: no mapping: %s" request msg)
  | Ok res ->
    let m = res.Opt.mapping in
    let ctx =
      span ~calls:micro_reps "model.context" (fun () ->
          let last = ref (Model.context r.Mix.w r.Mix.a) in
          for _ = 2 to micro_reps do
            last := Model.context r.Mix.w r.Mix.a
          done;
          !last)
    in
    span ~calls:model_reps "model.score" (fun () ->
        for _ = 1 to model_reps do
          ignore (Model.score_ctx ctx m)
        done);
    span ~calls:model_reps "model.evaluate" (fun () ->
        for _ = 1 to model_reps do
          ignore (Model.evaluate_ctx ctx m)
        done);
    span ~calls:micro_reps "codec.encode_mapping" (fun () ->
        for _ = 1 to micro_reps do
          ignore (Codec.encode_mapping m)
        done);
    let diags =
      span "analysis.recheck" (fun () ->
          Sun_analysis.Audit.recheck r.Mix.w r.Mix.a m ~claimed_energy:res.Opt.cost.Model.energy_pj
            ~claimed_edp:res.Opt.cost.Model.edp)
    in
    let s = res.Opt.stats in
    Ok
      {
        examined = s.Opt.examined;
        evaluated = s.Opt.evaluated;
        pruned = s.Opt.pruned_alpha_beta;
        build_errors = s.Opt.build_errors;
        eval_errors = s.Opt.eval_errors;
        trie_visited = trie_stats.Sun_core.Order_trie.nodes_visited;
        trie_pruned = trie_stats.Sun_core.Order_trie.nodes_pruned;
        trie_candidates = List.length trie;
        recheck_rejected = Sun_analysis.Diagnostic.has_errors diags;
      }
