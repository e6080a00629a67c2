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
let request_id ~index parsed =
  match Result.map (Json.member "id") parsed with
  | Ok (Some (Json.String s)) -> s
  | Ok (Some v) -> Json.to_string v
  | Ok None | Error _ -> Printf.sprintf "line%d" (index + 1)

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
(* Classify: the parent side of a request                               *)
(* ------------------------------------------------------------------ *)

(* Errors in the request chain carry the static-analysis diagnostics that
   produced them (empty for plain decode failures). *)
let plain r = Result.map_error (fun msg -> (msg, [])) r

(* Everything a worker needs to search or evaluate a request, as plain
   data: no closure, so it marshals to a worker as is. The config's
   [binding] stays in each side's own base config ({!task_config}). *)
type task = {
  id : string;
  line : int;  (* 1-based input line, for error responses *)
  workload_name : string;
  w : Sun_tensor.Workload.t;
  arch_name : string;
  a : Sun_arch.Arch.t;
  beam : int;
  direction : Opt.direction;
  fingerprint : string;
  eval_mapping : Json.t option;
  (* Test-only hooks, honored on the worker side: ["x-sunstone-test-crash":
     true] kills its worker mid-job (both the first attempt and the pool's
     retry, so the request surfaces as an error); ["x-sunstone-test-crash-once":
     PATH] kills the worker only while PATH exists and removes it first, so
     the retry succeeds; ["x-sunstone-test-corrupt-cost": true] doubles the
     claimed numbers so tests can prove the response gate fires. *)
  crash : bool;
  crash_once : string option;
  corrupt_cost : bool;
}

let task_config ~base t = { base with Opt.beam_width = t.beam; direction = t.direction }

(* Parses nothing: the driver parsed the line once, this decides the rest.
   Returns the echoed id and the task, or why the request fails. *)
let classify ~config:base ~index parsed =
  Tel.span "serve.parse_s" @@ fun () ->
  let id = request_id ~index parsed in
  ( id,
    let* json = Result.map_error (fun msg -> ("bad request: " ^ msg, [])) parsed in
    let* () =
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
        line = index + 1;
        workload_name;
        w;
        arch_name;
        a;
        beam = config.Opt.beam_width;
        direction = config.Opt.direction;
        fingerprint = Fingerprint.request ~config w a;
        eval_mapping = Json.member "mapping" json;
        crash = Json.member "x-sunstone-test-crash" json = Some (Json.Bool true);
        crash_once =
          (match Json.member "x-sunstone-test-crash-once" json with
          | Some (Json.String path) -> Some path
          | _ -> None);
        corrupt_cost = Json.member "x-sunstone-test-corrupt-cost" json <> None;
      } )

(* A usable cached document was computed by this version of the search and
   decodes into a valid mapping and cost for this workload; anything else
   (an older search, truncated write survivors, schema drift) is a miss.
   The mapping is answered in [w]'s own dim names: a workload spelled with
   other names shares the fingerprint, and {!Transfer.stored_levels} renames
   the stored levels through the document's [sdims]. Re-encoding a mapping
   the document spelled alike gives back its stored bytes. *)
let decode_cached w doc =
  let* () = if Transfer.current doc then Ok () else Error "stale search version" in
  let* cost_json = Json.field "cost" doc in
  let* cost = Codec.decode_cost cost_json in
  let* levels = Transfer.stored_levels w doc in
  let* m = Sun_mapping.Mapping.make w levels in
  Ok (Codec.encode_mapping m, cost_json, cost)

(* ------------------------------------------------------------------ *)
(* Compute: the worker side of a request                                *)
(* ------------------------------------------------------------------ *)

(* The search or evaluation of a classified request. Never consults the
   cache; instead returns the document the parent should store, keeping
   the parent the single cache writer. *)
let compute ?seed ~config:base t =
  let timer = Sun_util.Stopwatch.start () in
  let config = task_config ~base t in
  let result =
    match t.eval_mapping with
    | Some mapping_json ->
      (* evaluate a caller-supplied mapping instead of searching *)
      let* levels = plain (Codec.decode_mapping_raw mapping_json) in
      let diags = Sun_analysis.Legality.check_all t.w t.a levels in
      let* () =
        if D.has_errors diags then Error ("mapping rejected by static analysis", D.errors diags)
        else Ok ()
      in
      let* m = plain (Sun_mapping.Mapping.make t.w levels) in
      let* cost =
        plain (Tel.span "serve.compute_s" (fun () -> Sun_cost.Model.evaluate t.w t.a m))
      in
      Ok
        ( Computed,
          result_response ~id:t.id ~status:"evaluated" ~fingerprint:t.fingerprint
            ~workload_name:t.workload_name ~arch_name:t.arch_name ~mapping_json
            ~cost_json:(Codec.encode_cost cost) ~cost
            ~wall_s:(Sun_util.Stopwatch.elapsed_s timer),
          None )
    | None -> (
      match Tel.span "serve.compute_s" (fun () -> Opt.optimize ~config ?seed t.w t.a) with
      | Error msg -> Error (Printf.sprintf "no valid mapping: %s" msg, [])
      | Ok r ->
        (* Response gate: re-check legality, re-derive the cost (SA037 on
           drift) and re-verify order subsumption before the mapping is
           returned or cached. *)
        let claim_scale = if t.corrupt_cost then 2.0 else 1.0 in
        let audit =
          Tel.span "serve.recheck_s" (fun () ->
              Sun_analysis.Audit.recheck ~binding:config.Opt.binding t.w t.a r.Opt.mapping
                ~claimed_energy:(r.Opt.cost.Sun_cost.Model.energy_pj *. claim_scale)
                ~claimed_edp:(r.Opt.cost.Sun_cost.Model.edp *. claim_scale))
        in
        if D.has_errors audit then Error ("mapping rejected by audit recheck", D.errors audit)
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
              @ Transfer.stored_fields ~config t.w t.a)
          in
          Ok
            ( Computed,
              result_response ~id:t.id ~status:"computed" ~fingerprint:t.fingerprint
                ~workload_name:t.workload_name ~arch_name:t.arch_name ~mapping_json ~cost_json
                ~cost:r.Opt.cost ~wall_s:(Sun_util.Stopwatch.elapsed_s timer),
              Some (t.fingerprint, doc) ))
  in
  let outcome, response, store =
    match result with
    | Ok r -> r
    | Error (msg, diagnostics) ->
      (Failed, error_response ~diagnostics ~line:t.line ~id:t.id msg, None)
  in
  (outcome, response, store, Sun_util.Stopwatch.elapsed_s timer)

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

let crash_hooks t =
  (match t.crash_once with
  | Some path when Sys.file_exists path ->
    (try Sys.remove path with Sys_error _ -> ());
    Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ());
  if t.crash then Unix.kill (Unix.getpid ()) Sys.sigkill

type work = task * Sun_mapping.Mapping.level_mapping list option

type work_reply =
  outcome * string * (string * Json.t) option * float * Tel.snapshot option

(* The Parpool job function. Each worker resets its (copy-on-write
   inherited) telemetry registry before the job and ships a snapshot back
   with the result; the parent merges it on receipt. A crashed attempt's
   counts die with the process, so a retried job is counted exactly once —
   keeping totals independent of the worker count. *)
let worker ~config ((t, seed) : work) : work_reply =
  crash_hooks t;
  if Tel.enabled () then Tel.reset ();
  let outcome, response, store, wall = compute ?seed ~config t in
  let tel = if Tel.enabled () then Some (Tel.snapshot ()) else None in
  (outcome, Json.to_string response, store, wall, tel)

(* ------------------------------------------------------------------ *)
(* Routing core, shared by the batch driver and the daemon              *)
(* ------------------------------------------------------------------ *)

type 'a job = {
  key : int;
  index : int;
  id : string;
  slot : 'a;
  request : (task, string * D.t list) result;
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

let job r ~key ~index json slot =
  let id, request = classify ~config:r.config ~index json in
  { key; index; id; slot; request; fp = None; seed = None }

(* The parent side of a classified request (the parent is the only cache
   user): answer it when no compute is needed — rejected or a cache hit —
   else park it behind the job computing its fingerprint, or claim the
   fingerprint and hand it to the driver's ready queue. The in-flight check
   comes before the cache lookup, so cache counters do not depend on the
   worker count. A parked job routed again repeats only these two steps. *)
let rec route r job =
  let timer = Sun_util.Stopwatch.start () in
  let dispatch fp seed =
    Option.iter (fun fp -> Hashtbl.replace r.parked fp (Queue.create ())) fp;
    job.fp <- fp;
    job.seed <- seed;
    r.ready job
  in
  match job.request with
  | Error (msg, diagnostics) ->
    r.answer job Failed
      (Json.to_string (error_response ~diagnostics ~line:(job.index + 1) ~id:job.id msg))
      (Sun_util.Stopwatch.elapsed_s timer)
  | Ok t -> (
    match (t.eval_mapping, r.cache) with
    | Some _, _ | None, None ->
      (* evaluations never touch the cache; without one every search computes *)
      dispatch None None
    | None, Some c -> (
      match Hashtbl.find_opt r.parked t.fingerprint with
      | Some parked -> Queue.add job parked
      | None -> (
        let cached =
          match Tel.span "serve.cache_s" (fun () -> Cache.find c t.fingerprint) with
          | None -> None
          | Some doc -> Result.to_option (decode_cached t.w doc)
        in
        match cached with
        | Some (mapping_json, cost_json, cost) ->
          let wall_s = Sun_util.Stopwatch.elapsed_s timer in
          r.answer job Hit
            (Json.to_string
               (result_response ~id:t.id ~status:"hit" ~fingerprint:t.fingerprint
                  ~workload_name:t.workload_name ~arch_name:t.arch_name ~mapping_json
                  ~cost_json ~cost ~wall_s))
            wall_s
        | None ->
          (* miss: try to warm-start from the nearest cached family member
             (parent-side — workers never see the cache) *)
          dispatch (Some t.fingerprint)
            (Transfer.find_seed ~cache:c ~config:(task_config ~base:r.config t) t.w t.a))))

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

(* only a classified request reaches [ready] *)
let submit r job =
  Hashtbl.replace r.dispatched job.key job;
  Parpool.submit r.pool ~key:job.key (Result.get_ok job.request, job.seed)

let complete r (key, reply) =
  match Hashtbl.find_opt r.dispatched key with
  | None -> ()
  | Some job ->
    Hashtbl.remove r.dispatched key;
    (* the worker that knew the response is gone: answer from the job *)
    let failed msg =
      Json.to_string (error_response ~line:(job.index + 1) ~id:job.id msg)
    in
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
            route r (job r ~key:(cnt.c_requests - 1) ~index:(!index - 1) (Json.of_string line) ());
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
