module Opt = Sun_core.Optimizer
module D = Sun_analysis.Diagnostic
module Tel = Sun_telemetry.Metrics

type outcome = Hit | Computed | Failed

type summary = {
  requests : int;
  hits : int;
  computed : int;
  errors : int;
  wall_s : float;
  hit_s : float;
  computed_s : float;
  error_s : float;
  jobs : int;
  cache_stats : Cache.stats option;
}

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

(* A [workload] / [arch] field is a registry name or an inline document. *)
let resolve name_field decode_inline find json =
  let* v = Json.field name_field json in
  match v with
  | Json.String name ->
    let* x = find name in
    Ok (name, x)
  | Json.Obj _ ->
    let* x = decode_inline v in
    Ok ("<inline>", x)
  | _ -> Error (Printf.sprintf "%s: expected a name or an inline object" name_field)

let request_config ~base json =
  let* beam =
    match Json.member "beam" json with
    | None -> Ok base.Opt.beam_width
    | Some v -> Json.as_int v
  in
  let* direction =
    match Json.member "top_down" json with
    | None -> Ok base.Opt.direction
    | Some v ->
      let* td = Json.as_bool v in
      Ok (if td then Opt.Top_down else Opt.Bottom_up)
  in
  Ok { base with Opt.beam_width = beam; direction }

(* Default ids use the same 1-based line number as the [line] field of
   error responses, so "line3" always means input line 3. *)
let default_id ~index = Printf.sprintf "line%d" (index + 1)

let request_id ~index json =
  match Json.member "id" json with
  | Some (Json.String s) -> s
  | Some v -> Json.to_string v
  | None -> default_id ~index

(* ------------------------------------------------------------------ *)
(* Response construction                                                *)
(* ------------------------------------------------------------------ *)

let error_response ?(diagnostics = []) ~line ~id msg =
  Json.Obj
    ([
       ("v", Json.Int Codec.version);
       ("id", Json.String id);
       ("status", Json.String "error");
       ("line", Json.Int line);
       ("error", Json.String msg);
     ]
    @
    if diagnostics = [] then []
    else [ ("diagnostics", Json.List (List.map Codec.encode_diagnostic diagnostics)) ])

let result_response ~id ~status ~fingerprint ~workload_name ~arch_name ~mapping_json ~cost_json
    ~(cost : Sun_cost.Model.cost) ~wall_s =
  Json.Obj
    [
      ("v", Json.Int Codec.version);
      ("id", Json.String id);
      ("status", Json.String status);
      ("workload", Json.String workload_name);
      ("arch", Json.String arch_name);
      ("fingerprint", Json.String fingerprint);
      ("mapping", mapping_json);
      ("cost", cost_json);
      ("energy_pj", Json.Float cost.Sun_cost.Model.energy_pj);
      ("cycles", Json.Float cost.Sun_cost.Model.cycles);
      ("edp", Json.Float cost.Sun_cost.Model.edp);
      ("wall_s", Json.Float wall_s);
    ]

(* ------------------------------------------------------------------ *)
(* The two phases of a request                                          *)
(* ------------------------------------------------------------------ *)

(* A usable cached document was computed by this version of the search and
   decodes into a valid mapping and cost for this workload; anything else
   (an older search, truncated write survivors, schema drift) is a miss. *)
let decode_cached w doc =
  let* () = if Transfer.current doc then Ok () else Error "stale search version" in
  let* mapping_json = Json.field "mapping" doc in
  let* cost_json = Json.field "cost" doc in
  let* (_ : Sun_mapping.Mapping.t) = Codec.decode_mapping w mapping_json in
  let* cost = Codec.decode_cost cost_json in
  Ok (mapping_json, cost_json, cost)

(* Errors in the request chain carry the static-analysis diagnostics that
   produced them (empty for plain decode failures). *)
let plain r = Result.map_error (fun msg -> (msg, [])) r

(* Everything about a request that can be decided without searching. *)
type parsed = {
  id : string;
  workload_name : string;
  w : Sun_tensor.Workload.t;
  arch_name : string;
  a : Sun_arch.Arch.t;
  config : Opt.config;
  fingerprint : string;
  eval_mapping : Json.t option;
}

let parse_request ~config:base ~index line =
  Tel.span "serve.parse_s" @@ fun () ->
  match Json.of_string line with
  | Error msg -> Error (default_id ~index, "bad request: " ^ msg, [])
  | Ok json ->
    let id = request_id ~index json in
    Result.map_error
      (fun (msg, diagnostics) -> (id, msg, diagnostics))
      (let* () =
         match Json.member "v" json with
         | None -> Ok ()
         | Some (Json.Int v) when v = Codec.version -> Ok ()
         | Some v -> Error (Printf.sprintf "unsupported request version %s" (Json.to_string v), [])
       in
       let* workload_name, w =
         plain (resolve "workload" Codec.decode_workload Registry.find_workload json)
       in
       let* arch_name, a = plain (resolve "arch" Codec.decode_arch Registry.find_arch json) in
       let* config = plain (request_config ~base json) in
       (* static well-formedness gate: an inline arch or workload that would
          crash or nonsense-cost the optimizer is rejected with diagnostics *)
       let wf =
         Tel.span "serve.gate_s" (fun () -> Sun_analysis.Wellformed.check_request ~config w a)
       in
       let* () =
         if D.has_errors wf then Error ("request rejected by static analysis", D.errors wf)
         else Ok ()
       in
       Ok
         {
           id;
           workload_name;
           w;
           arch_name;
           a;
           config;
           fingerprint = Fingerprint.request ~config w a;
           eval_mapping = Json.member "mapping" json;
         })

(* The worker side of a request: the actual search or evaluation. Never
   consults the cache; instead returns the document the parent should
   store, keeping the parent the single cache writer. *)
let compute ?seed ~config ~index line =
  let timer = Sun_util.Stopwatch.start () in
  let line_no = index + 1 in
  match parse_request ~config ~index line with
  | Error (id, msg, diagnostics) ->
    (Failed, error_response ~diagnostics ~line:line_no ~id msg, None,
     Sun_util.Stopwatch.elapsed_s timer)
  | Ok p -> (
    let finish = function
      | Ok (outcome, response, store) -> (outcome, response, store, Sun_util.Stopwatch.elapsed_s timer)
      | Error (msg, diagnostics) ->
        (Failed, error_response ~diagnostics ~line:line_no ~id:p.id msg, None,
         Sun_util.Stopwatch.elapsed_s timer)
    in
    match p.eval_mapping with
    | Some mapping_json ->
      (* evaluate a caller-supplied mapping instead of searching *)
      finish
        (let* levels = plain (Codec.decode_mapping_raw mapping_json) in
         let diags = Sun_analysis.Legality.check_all p.w p.a levels in
         let* () =
           if D.has_errors diags then Error ("mapping rejected by static analysis", D.errors diags)
           else Ok ()
         in
         let* m = plain (Sun_mapping.Mapping.make p.w levels) in
         let* cost =
           plain (Tel.span "serve.compute_s" (fun () -> Sun_cost.Model.evaluate p.w p.a m))
         in
         Ok
           ( Computed,
             result_response ~id:p.id ~status:"evaluated" ~fingerprint:p.fingerprint
               ~workload_name:p.workload_name ~arch_name:p.arch_name ~mapping_json
               ~cost_json:(Codec.encode_cost cost) ~cost
               ~wall_s:(Sun_util.Stopwatch.elapsed_s timer),
             None ))
    | None ->
      finish
        (match
           Tel.span "serve.compute_s" (fun () -> Opt.optimize ~config:p.config ?seed p.w p.a)
         with
        | Error msg -> Error (Printf.sprintf "no valid mapping: %s" msg, [])
        | Ok r ->
          (* Response gate: re-check legality, re-derive the cost (SA037 on
             drift) and re-verify order subsumption before the mapping is
             returned or cached. The test hook ["x-sunstone-test-corrupt-cost":
             true] doubles the claimed numbers so tests can prove the gate
             fires. *)
          let claimed_energy, claimed_edp =
            let corrupt =
              match Json.of_string line with
              | Ok json -> Json.member "x-sunstone-test-corrupt-cost" json <> None
              | Error _ -> false
            in
            if corrupt then
              (r.Opt.cost.Sun_cost.Model.energy_pj *. 2.0, r.Opt.cost.Sun_cost.Model.edp *. 2.0)
            else (r.Opt.cost.Sun_cost.Model.energy_pj, r.Opt.cost.Sun_cost.Model.edp)
          in
          let audit =
            Tel.span "serve.recheck_s" (fun () ->
                Sun_analysis.Audit.recheck ~binding:p.config.Opt.binding p.w p.a r.Opt.mapping
                  ~claimed_energy ~claimed_edp)
          in
          if D.has_errors audit then
            Error ("mapping rejected by audit recheck", D.errors audit)
          else
          let mapping_json = Codec.encode_mapping r.Opt.mapping in
          let cost_json = Codec.encode_cost r.Opt.cost in
          let doc =
            (* the search version keeps other searches' answers out of hits
               and seeds; family/bounds/sdims make the stored document
               self-describing for the cache's shape-family index
               ({!Transfer}) *)
            Json.Obj
              ([ ("v", Json.Int Codec.version); ("mapping", mapping_json); ("cost", cost_json) ]
              @ Transfer.stored_fields ~config:p.config p.w p.a)
          in
          Ok
            ( Computed,
              result_response ~id:p.id ~status:"computed" ~fingerprint:p.fingerprint
                ~workload_name:p.workload_name ~arch_name:p.arch_name ~mapping_json ~cost_json
                ~cost:r.Opt.cost ~wall_s:(Sun_util.Stopwatch.elapsed_s timer),
              Some (p.fingerprint, doc) )))

(* ------------------------------------------------------------------ *)
(* Outcome counters                                                     *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable c_requests : int;
  mutable c_hits : int;
  mutable c_computed : int;
  mutable c_errors : int;
  mutable c_hit_s : float;
  mutable c_computed_s : float;
  mutable c_error_s : float;
}

let fresh_counters () =
  { c_requests = 0; c_hits = 0; c_computed = 0; c_errors = 0; c_hit_s = 0.; c_computed_s = 0.;
    c_error_s = 0. }

(* Outcome counters are tallied in the parent by both pool drivers — one of
   the invariants behind the jobs-1-vs-jobs-N counter parity the tests and
   ci.sh enforce. *)
let tally outcome =
  Tel.count
    (match outcome with
    | Hit -> "serve.hits"
    | Computed -> "serve.computed"
    | Failed -> "serve.errors")
    1

let count cnt outcome wall =
  tally outcome;
  match outcome with
  | Hit ->
    cnt.c_hits <- cnt.c_hits + 1;
    cnt.c_hit_s <- cnt.c_hit_s +. wall
  | Computed ->
    cnt.c_computed <- cnt.c_computed + 1;
    cnt.c_computed_s <- cnt.c_computed_s +. wall
  | Failed ->
    cnt.c_errors <- cnt.c_errors + 1;
    cnt.c_error_s <- cnt.c_error_s +. wall

(* ------------------------------------------------------------------ *)
(* Worker side                                                          *)
(* ------------------------------------------------------------------ *)

(* Test-only crash hooks, honored on the worker side: a request carrying
   ["x-sunstone-test-crash": true] kills its worker mid-job (both the first
   attempt and the pool's retry, so the request surfaces as an error);
   ["x-sunstone-test-crash-once": PATH] kills the worker only while PATH
   exists and removes it first, so the retry succeeds. *)
let worker_crash_hooks line =
  match Json.of_string line with
  | Error _ -> ()
  | Ok json -> (
    (match Json.member "x-sunstone-test-crash-once" json with
    | Some (Json.String path) when Sys.file_exists path ->
      (try Sys.remove path with Sys_error _ -> ());
      Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ());
    match Json.member "x-sunstone-test-crash" json with
    | Some (Json.Bool true) -> Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ())

(* The id of a crashed request has to be recovered in the parent: the
   worker that knew it is gone. *)
let crash_error_response ~index ~line msg =
  let id =
    match Json.of_string line with
    | Ok json -> request_id ~index json
    | Error _ -> default_id ~index
  in
  error_response ~line:(index + 1) ~id msg

type work = int * string * Sun_mapping.Mapping.level_mapping list option

type work_reply =
  outcome * string * (string * Json.t) option * float * Tel.snapshot option

(* The Parpool job function. Each worker resets its (copy-on-write
   inherited) telemetry registry before the job and ships a snapshot back
   with the result; the parent merges it on receipt. A crashed attempt's
   counts die with the process, so a retried job is counted exactly once —
   keeping totals independent of the worker count. *)
let worker ~config ((index, line, seed) : work) : work_reply =
  worker_crash_hooks line;
  if Tel.enabled () then Tel.reset ();
  let outcome, response, store, wall = compute ?seed ~config ~index line in
  let tel = if Tel.enabled () then Some (Tel.snapshot ()) else None in
  (outcome, Json.to_string response, store, wall, tel)

(* ------------------------------------------------------------------ *)
(* Routing core, shared by the batch driver and the daemon              *)
(* ------------------------------------------------------------------ *)

type 'a job = {
  key : int;
  index : int;
  line : string;
  slot : 'a;
  mutable fp : string option;
  mutable seed : Sun_mapping.Mapping.level_mapping list option;
}

type 'a router = {
  cache : Cache.t option;
  config : Opt.config;
  pool : (work, work_reply) Parpool.t;
  parked : (string, 'a job Queue.t) Hashtbl.t;
      (* fingerprint in flight -> the duplicates parked behind it *)
  dispatched : (int, 'a job) Hashtbl.t;  (* pool key -> job *)
  answer : 'a job -> outcome -> string -> float -> unit;
  ready : 'a job -> unit;
}

let router ?cache ?on_child_fork ~config ~jobs ~answer ~ready () =
  {
    cache;
    config;
    pool = Parpool.create ?on_child_fork ~jobs ~f:(worker ~config) ();
    parked = Hashtbl.create 16;
    dispatched = Hashtbl.create 16;
    answer;
    ready;
  }

let pool r = r.pool

let job ~key ~index ~line slot = { key; index; line; slot; fp = None; seed = None }

(* The parent side of a request (the parent is the only cache user): answer
   it when no compute is needed — malformed, statically rejected or a cache
   hit — else park it behind the job computing its fingerprint, or claim
   the fingerprint and hand it to the driver's ready queue. The in-flight
   check comes before the cache lookup, so cache counters do not depend on
   the worker count. *)
let rec route r job =
  let timer = Sun_util.Stopwatch.start () in
  let dispatch fp seed =
    Option.iter (fun fp -> Hashtbl.replace r.parked fp (Queue.create ())) fp;
    job.fp <- fp;
    job.seed <- seed;
    r.ready job
  in
  match parse_request ~config:r.config ~index:job.index job.line with
  | Error (id, msg, diagnostics) ->
    r.answer job Failed
      (Json.to_string (error_response ~diagnostics ~line:(job.index + 1) ~id msg))
      (Sun_util.Stopwatch.elapsed_s timer)
  | Ok p -> (
    match (p.eval_mapping, r.cache) with
    | Some _, _ | None, None ->
      (* evaluations never touch the cache; without one every search computes *)
      dispatch None None
    | None, Some c -> (
      match Hashtbl.find_opt r.parked p.fingerprint with
      | Some parked -> Queue.add job parked
      | None -> (
        let cached =
          match Tel.span "serve.cache_s" (fun () -> Cache.find c p.fingerprint) with
          | None -> None
          | Some doc -> Result.to_option (decode_cached p.w doc)
        in
        match cached with
        | Some (mapping_json, cost_json, cost) ->
          let wall_s = Sun_util.Stopwatch.elapsed_s timer in
          r.answer job Hit
            (Json.to_string
               (result_response ~id:p.id ~status:"hit" ~fingerprint:p.fingerprint
                  ~workload_name:p.workload_name ~arch_name:p.arch_name ~mapping_json
                  ~cost_json ~cost ~wall_s))
            wall_s
        | None ->
          (* miss: try to warm-start from the nearest cached family member
             (parent-side — workers never see the cache) *)
          dispatch (Some p.fingerprint)
            (Transfer.find_seed ~cache:c ~config:p.config p.w p.a))))

(* A fingerprint landed (stored, failed, expired or dropped): everything
   parked on it is routed again — normally a cache hit now, or a fresh
   dispatch when the owner produced nothing storable. *)
and release r job =
  match job.fp with
  | None -> ()
  | Some fp -> (
    job.fp <- None;
    match Hashtbl.find_opt r.parked fp with
    | None -> ()
    | Some parked ->
      Hashtbl.remove r.parked fp;
      Queue.iter (route r) parked)

let submit r job =
  Hashtbl.replace r.dispatched job.key job;
  Parpool.submit r.pool ~key:job.key (job.index, job.line, job.seed)

let complete r (key, reply) =
  match Hashtbl.find_opt r.dispatched key with
  | None -> ()
  | Some job ->
    Hashtbl.remove r.dispatched key;
    let failed msg = Json.to_string (crash_error_response ~index:job.index ~line:job.line msg) in
    let outcome, response, wall =
      match reply with
      | Parpool.Done (outcome, response, store, wall, tel) ->
        Option.iter Tel.merge tel;
        (match (r.cache, store) with
        | Some c, Some (key, doc) ->
          Tel.count "serve.cache_stores" 1;
          Cache.store c key doc
        | _ -> ());
        (outcome, response, wall)
      | Parpool.Failed msg -> (Failed, failed ("worker error: " ^ msg), 0.)
      | Parpool.Crashed -> (Failed, failed "worker crashed", 0.)
    in
    r.answer job outcome response wall;
    release r job

(* ------------------------------------------------------------------ *)
(* The batch driver                                                     *)
(* ------------------------------------------------------------------ *)

(* Computes on the worker pool at every [jobs]. Lines are read only while a
   worker is idle and nothing classified waits for one, so with one worker
   each request is classified after every earlier one has landed: the cache
   hits and transfer seeds are those of a one-at-a-time run. *)
let run_channels ?cache ?(config = Opt.default_config) ?(jobs = 1) ic oc =
  let timer = Sun_util.Stopwatch.start () in
  let jobs = max 1 jobs in
  let cnt = fresh_counters () in
  let out_buf : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let emit_next = ref 0 in
  (* Responses leave strictly in input order, whatever order workers finish. *)
  let rec flush_ready () =
    match Hashtbl.find_opt out_buf !emit_next with
    | Some s ->
      output_string oc s;
      output_char oc '\n';
      Hashtbl.remove out_buf !emit_next;
      incr emit_next;
      flush_ready ()
    | None -> ()
  in
  let answer job outcome response wall =
    count cnt outcome wall;
    Hashtbl.replace out_buf job.key response;
    flush_ready ()
  in
  let ready = Queue.create () in
  let r = router ?cache ~config ~jobs ~answer ~ready:(fun job -> Queue.add job ready) () in
  Fun.protect ~finally:(fun () -> Parpool.shutdown r.pool) (fun () ->
      let index = ref 0 in
      (* routes the next non-blank line; [false] at end of input *)
      let rec read () =
        match input_line ic with
        | exception End_of_file -> false
        | line ->
          incr index;
          if String.trim line = "" then read ()
          else begin
            Tel.count "serve.requests" 1;
            cnt.c_requests <- cnt.c_requests + 1;
            route r (job ~key:(cnt.c_requests - 1) ~index:(!index - 1) ~line ());
            true
          end
      in
      let rec drive more =
        let idle = Parpool.idle r.pool > 0 in
        if idle && not (Queue.is_empty ready) then begin
          submit r (Queue.pop ready);
          drive more
        end
        else if idle && more then drive (read ())
        else if Parpool.pending r.pool > 0 then begin
          complete r (Parpool.next r.pool);
          drive more
        end
      in
      drive true);
  flush oc;
  {
    requests = cnt.c_requests;
    hits = cnt.c_hits;
    computed = cnt.c_computed;
    errors = cnt.c_errors;
    wall_s = Sun_util.Stopwatch.elapsed_s timer;
    hit_s = cnt.c_hit_s;
    computed_s = cnt.c_computed_s;
    error_s = cnt.c_error_s;
    jobs;
    cache_stats = Option.map Cache.stats cache;
  }

let run_files ?cache ?config ?jobs ~input ~output () =
  let ic = if input = "-" then stdin else open_in input in
  Fun.protect
    ~finally:(fun () -> if input <> "-" then close_in_noerr ic)
    (fun () ->
      let oc = if output = "-" then stdout else open_out output in
      Fun.protect
        ~finally:(fun () -> if output <> "-" then close_out_noerr oc)
        (fun () -> run_channels ?cache ?config ?jobs ic oc))

let summary_line s =
  let cache_part =
    match s.cache_stats with
    | None -> "cache disabled"
    | Some st -> Format.asprintf "cache: %a" Cache.pp_stats st
  in
  Printf.sprintf
    "%d requests: %d hits, %d computed, %d errors in %.2fs (jobs %d; request time: %.2fs hit, \
     %.2fs computed, %.2fs error; %s)"
    s.requests s.hits s.computed s.errors s.wall_s s.jobs s.hit_s s.computed_s s.error_s cache_part
