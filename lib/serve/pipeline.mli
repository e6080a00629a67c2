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

    {2 Parallel serving}

    With [jobs >= 2] the pipeline fans requests out over a {!Parpool} of
    forked workers while preserving the sequential contract:

    - the parent alone parses lines, consults the cache (hits never reach
      a worker) and writes cache entries, so LRU order and {!Cache.stats}
      stay exact — workers never see the cache at all;
    - a search whose fingerprint is already being computed is parked
      until the first one lands, then served as a cache hit, exactly as
      it would have been sequentially;
    - responses are re-sequenced so output order always equals input
      order regardless of completion order;
    - a worker that dies mid-request is replaced and the request retried
      once; a second death yields an [status:"error"] response for that
      request only — the batch always completes.

    Consequently [jobs = N] and [jobs = 1] produce identical responses
    (up to [wall_s] timings) whenever the batch's distinct fingerprints
    fit in the cache's in-memory capacity; past that, LRU eviction order
    — and therefore the hit/computed split — may differ, because the
    parallel parent performs lookups ahead of completions.

    One further caveat: cross-request mapping transfer ({!Transfer})
    seeds a miss's search from the nearest already-cached family member,
    and which members are cached when a request classifies depends on
    completion timing once [jobs >= 2]. On batches containing family
    mates (same structure, arch and config, different bounds) the chosen
    {e mapping} may therefore differ across job counts — always with
    equal-or-better EDP, and always identically without a cache.
    Batches without family mates are entirely unaffected. *)

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
  jobs : int;  (** worker processes used (1 = in-process, sequential) *)
  cache_stats : Cache.stats option;  (** [None] when caching is disabled *)
}

val run_channels :
  ?cache:Cache.t -> ?config:Sun_core.Optimizer.config -> ?jobs:int -> in_channel -> out_channel ->
  summary
(** Streams requests to responses. [?cache] absent disables caching (every
    request is a fresh search); [?config] is the base optimizer config
    (default {!Sun_core.Optimizer.default_config}); [?jobs] (default [1],
    values [< 1] clamped to [1]) spreads non-hit requests over that many
    forked workers. *)

val run_files :
  ?cache:Cache.t -> ?config:Sun_core.Optimizer.config -> ?jobs:int -> input:string ->
  output:string -> unit -> summary
(** File front end; ["-"] means stdin / stdout. *)

val summary_line : summary -> string
(** One human-readable line, e.g.
    ["36 requests: 24 hits, 12 computed, 0 errors in 1.8s (jobs 4; ...)"]. *)

(** {2 Single-request entry points}

    The building blocks of the batch drivers, exported so other front ends
    — notably the serving daemon ({!Server}) — can run the exact same
    request pipeline one line at a time and stay byte-identical to
    [run_channels] (modulo [wall_s]). The split mirrors the batch
    architecture: {!classify} runs in the parent (sole cache user),
    {!worker} / {!compute} run wherever the search should happen, and the
    parent stores the returned document with {!store_if}. *)

type classified =
  | Final of outcome * Json.t * float
      (** response ready without compute (malformed, statically rejected,
          or cache hit); carries the per-request wall seconds *)
  | Deferred of string
      (** same fingerprint already dispatched; park and re-{!classify}
          after it lands *)
  | Dispatch of {
      fp : string option;
          (** [Some fp] marks a cacheable search whose document should be
              stored (and whose fingerprint is now in flight) *)
      seed : Sun_mapping.Mapping.level_mapping list option;
          (** nearest-neighbor transfer seed ({!Transfer.find_seed}),
              resolved in the parent so workers stay cache-blind; ship it
              to {!compute}/{!worker} in the work frame *)
    }

val classify :
  ?cache:Cache.t -> ?in_flight:(string -> bool) -> config:Sun_core.Optimizer.config ->
  index:int -> string -> classified
(** Parent-side phase 1: parse, well-formedness gate, fingerprint,
    [in_flight] dedup check (default [fun _ -> false]), cache lookup.
    [index] is the 0-based request ordinal used for default ids and the
    [line] field of error responses. Never raises. *)

val compute :
  ?seed:Sun_mapping.Mapping.level_mapping list ->
  config:Sun_core.Optimizer.config -> index:int -> string ->
  outcome * Json.t * (string * Json.t) option * float
(** Phase 2: the actual search or evaluation, cache-blind. [?seed] is the
    transfer seed from {!classify}'s [Dispatch], forwarded to
    {!Sun_core.Optimizer.optimize} (ignored by evaluations). Returns
    [(outcome, response, store, wall_s)] where [store = Some (fp, doc)]
    is the document the parent should cache. Never raises. *)

val worker :
  config:Sun_core.Optimizer.config ->
  int * string * Sun_mapping.Mapping.level_mapping list option ->
  outcome * string * (string * Json.t) option * float * Sun_telemetry.Metrics.snapshot option
(** The {!Parpool} job function wrapping {!compute}: honors the test-only
    worker crash hooks, resets the forked telemetry registry and ships a
    snapshot back for the parent to {!Sun_telemetry.Metrics.merge}. The
    response comes back pre-serialized (a string) so marshalling never
    sees a [Json.t]. *)

val store_if : ?cache:Cache.t -> (string * Json.t) option -> unit
(** Parent-side store of a {!compute} result's document; a no-op without
    a cache or a document. *)

val error_response : ?diagnostics:Sun_analysis.Diagnostic.t list -> line:int -> id:string ->
  string -> Json.t
(** A [status:"error"] response; [line] is 1-based. *)

val crash_error_response : index:int -> line:string -> string -> Json.t
(** Error response for a request whose worker died: re-derives the id
    from the raw input [line] in the parent ([index] is 0-based). *)

val request_id : index:int -> Json.t -> string
(** The echoed id of a parsed request: its ["id"] field, or
    ["line<index+1>"] when absent. *)
