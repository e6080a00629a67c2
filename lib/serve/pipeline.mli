(** JSONL batch scheduling: the request pipeline
    fingerprint → cache lookup → search → serialize → persist.

    Input is one JSON request per line:

    {v
    {"v":1, "id":"r0", "workload":"resnet18/conv2_x", "arch":"simba",
     "beam":12, "top_down":false}
    v}

    - [workload] and [arch] are either registry names ({!Registry}) or
      inline {!Codec} documents, so callers can schedule workloads that
      have no built-in name;
    - [id] is optional and echoed back (defaults to the 1-based line
      number rendered as ["line<N>"], matching the ["line"] field of
      error responses);
    - [beam] and [top_down] optionally override the pipeline's base
      optimizer config *for that request* (and are folded into its
      fingerprint);
    - an optional [mapping] field (a {!Codec} mapping document) switches
      the request from search to evaluation: the mapping is
      legality-checked ({!Sun_analysis.Legality}) and costed as-is,
      answering with [status:"evaluated"];
    - blank lines are skipped.

    Every decoded request passes the {!Sun_analysis.Wellformed} gate
    before any search or evaluation: an inline architecture or workload
    that would crash or nonsense-cost the optimizer (interior unbounded
    level, operand no partition accepts, zero capacity, ...) is rejected
    up front.

    Output is one JSON response per line, in input order:

    {v
    {"v":1, "id":"r0", "status":"hit"|"computed"|"evaluated"|"error",
     "fingerprint":"...", "mapping":{...}, "cost":{...},
     "energy_pj":..., "cycles":..., "edp":..., "wall_s":...}
    v}

    [status:"error"] responses carry the 1-based input ["line"] number and
    an ["error"] message instead of a mapping; rejections produced by the
    static analyses additionally carry a ["diagnostics"] array of
    {!Codec.encode_diagnostic} objects with stable [SAxxx] codes. A
    malformed line yields an error response, never a crash, and JSON parse
    errors locate the fault by offset, line and column. Responses for
    cache hits are byte-identical in mapping and cost to the run that
    populated the cache (floats round-trip exactly through the codec).

    {2 Serving on the worker pool}

    Every request that needs compute runs in a {!Parpool} of [jobs]
    forked workers, [jobs = 1] included; one routing core (below) drives
    both [batch] and the daemon ({!Server}):

    - the parent alone parses lines, consults the cache (hits never reach
      a worker) and writes cache entries, so LRU order and {!Cache.stats}
      are the parent's alone — workers never see the cache at all;
    - a search whose fingerprint is already being computed is parked
      until the first one lands, then served as a cache hit;
    - the batch driver reads the next line only while a worker is idle
      and nothing classified waits for one, so with one worker every
      request is classified after all earlier ones have landed;
    - responses are re-sequenced so output order always equals input
      order regardless of completion order;
    - a worker that dies mid-request is replaced and the request retried
      once; a second death yields an [status:"error"] response for that
      request only — the batch always completes.

    Consequently [jobs = N] and [jobs = 1] produce identical responses
    (up to [wall_s] timings) whenever the batch's distinct fingerprints
    fit in the cache's in-memory capacity; past that, LRU eviction order
    — and therefore the hit/computed split — may differ, because with
    more workers the parent performs lookups ahead of completions.

    One further caveat: cross-request mapping transfer ({!Transfer})
    seeds a miss's search from the nearest already-cached family member,
    and which members are cached when a request classifies depends on
    completion timing once [jobs >= 2]. On batches containing family
    mates (same structure, arch and config, different bounds) the chosen
    {e mapping} may therefore differ across job counts — always with
    equal-or-better EDP, and always identically without a cache.
    Batches without family mates are entirely unaffected.

    Cached documents carry {!Transfer.search_version}; one computed under
    another version of the search is a miss, recomputed and overwritten. *)

type outcome = Hit | Computed | Failed

type summary = {
  requests : int;
  hits : int;
  computed : int;
  errors : int;
  wall_s : float;  (** whole-batch wall time *)
  hit_s : float;  (** cumulative per-request wall time of cache hits *)
  computed_s : float;  (** ... of searches and evaluations (sums worker time) *)
  error_s : float;  (** ... of failed requests *)
  jobs : int;  (** worker processes used *)
  cache_stats : Cache.stats option;  (** [None] when caching is disabled *)
}

val run_channels :
  ?cache:Cache.t -> ?config:Sun_core.Optimizer.config -> ?jobs:int -> in_channel -> out_channel ->
  summary
(** Streams requests to responses. [?cache] absent disables caching (every
    request is a fresh search); [?config] is the base optimizer config
    (default {!Sun_core.Optimizer.default_config}); [?jobs] (default [1],
    values [< 1] clamped to [1]) is the number of forked workers that
    compute the non-hit requests. *)

val run_files :
  ?cache:Cache.t -> ?config:Sun_core.Optimizer.config -> ?jobs:int -> input:string ->
  output:string -> unit -> summary
(** File front end; ["-"] means stdin / stdout. *)

val summary_line : summary -> string
(** One human-readable line, e.g.
    ["36 requests: 24 hits, 12 computed, 0 errors in 1.8s (jobs 4; ...)"]. *)

(** {2 The routing core}

    What the batch driver and the daemon ({!Server}) share. A driver parses
    each line once ([Json.of_string]) and hands the value to {!job}, which
    classifies it in the parent, once: version check, registry or inline
    resolve of [workload] and [arch], the [beam] / [top_down] overrides,
    the {!Sun_analysis.Wellformed} gate, {!Fingerprint.request}, the
    [mapping] field and the [x-sunstone-test-*] hook fields. The job keeps
    the result. {!route} then claims the fingerprint or parks the job
    behind the request already computing it, looks the fingerprint up in
    the cache and picks a transfer seed; a parked job routed again repeats
    only the in-flight check and the cache lookup. A worker receives plain
    data — workload, arch, beam and direction, fingerprint, names, id,
    evaluation mapping, seed and hook flags — and only searches or
    evaluates, rechecks and encodes; the config's [binding] is the worker's
    own base config's. {!complete} turns the worker's reply into a
    response, storing the result in the cache. A driver supplies where
    responses go ([answer]) and how jobs wait for an idle worker ([ready]);
    it keeps its own input, output order and dispatch policy. *)

type task
(** A classified request, as the plain data a worker computes from. *)

type 'a job = private {
  key : int;  (** pool key, unique among the driver's jobs *)
  index : int;  (** 0-based input line: default ids and error [line]s *)
  id : string;  (** the echoed id, also of crash, worker-error and expiry responses *)
  slot : 'a;  (** the driver's own data, e.g. where the response goes *)
  request : (task, string * Sun_analysis.Diagnostic.t list) result;
      (** the classified request, or why it is rejected (with diagnostics) *)
  mutable fp : string option;  (** fingerprint this job holds in flight *)
  mutable seed : Sun_mapping.Mapping.level_mapping list option;
      (** transfer seed resolved at routing time, shipped with the job *)
}

type 'a router
type work
type work_reply

val router :
  ?cache:Cache.t -> ?on_child_fork:(unit -> unit) -> config:Sun_core.Optimizer.config ->
  jobs:int -> answer:('a job -> outcome -> string -> float -> unit) -> ready:('a job -> unit) ->
  unit -> 'a router
(** Creates the pool: up to [jobs] workers, forked by the first
    {!submit}s that find none idle, and [?on_child_fork] as in
    {!Parpool.create}. A run whose every request is answered in the
    parent (cache hits, rejected lines) forks nothing. [config] is the base
    optimizer config of both sides.
    [answer job outcome response wall_s] receives every final response,
    serialized; it is called once per routed job.
    [ready job] receives each job that needs compute; the driver passes it
    to {!submit} once a worker is idle, or to {!release} if it drops it. *)

val job : 'a router -> key:int -> index:int -> (Json.t, string) result -> 'a -> 'a job
(** [job r ~key ~index parsed slot] classifies one parsed request line
    ([Error] is the parse failure, answered as ["bad request: ..."]) into
    a fresh job carrying the driver's [slot]. Times the classification as
    [serve.parse_s] and the gate as [serve.gate_s]. *)

val pool : 'a router -> (work, work_reply) Parpool.t
(** For idleness, completions and shutdown; drivers call {!submit} and
    {!complete} rather than {!Parpool.submit} and matching replies. *)

val route : 'a router -> 'a job -> unit
(** Answers a fresh job (rejected or a cache hit), parks it, or hands it
    to [ready]. Never raises. *)

val submit : 'a router -> 'a job -> unit
(** Ships a [ready] job to an idle worker. *)

val complete : 'a router -> int * work_reply Parpool.reply -> unit
(** Handles one pool completion: merges the worker's telemetry, stores
    the result in the cache, answers the job (a raised job or a twice
    crashed worker becomes an error response with the job's id), then
    {!release}s it. *)

val release : 'a router -> 'a job -> unit
(** Gives up the job's fingerprint and routes every job parked behind it
    again. Drivers call it for a [ready] job they drop uncomputed. *)

val tally : outcome -> unit
(** Counts an outcome in the [serve.*] telemetry counters. *)

val error_response : ?diagnostics:Sun_analysis.Diagnostic.t list -> line:int -> id:string ->
  string -> Json.t
(** A [status:"error"] response; [line] is 1-based. *)

val request_id : index:int -> (Json.t, string) result -> string
(** The echoed id of a parsed request line: its ["id"] field, or
    ["line<index+1>"] when it has none or did not parse. *)
