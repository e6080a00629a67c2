(** Zero-dependency structured metrics: named monotonic counters, latency
    histograms, and span timers over one process-global registry.

    The registry is thread-unsafe by design — a deliberate single-writer
    model. The only concurrency in this codebase is [Sun_serve.Parpool]'s
    forked workers, and fork gives every worker a private copy of the
    registry for free. The protocol (DESIGN.md §3.4) is:

    - the parent enables telemetry {e before} the pool forks, so workers
      inherit the enabled flag and the registered handles;
    - a worker calls {!reset} at the start of each job and ships
      [{!snapshot} ()] back inside its reply frame;
    - the parent calls {!merge} on each received snapshot, adding the
      worker's per-job deltas into its own registry.

    A crashed worker's partial counts die with its process and the job is
    retried from zero on a fresh worker, so counter totals are identical
    whether a batch runs on 1 or N workers.

    Everything is disabled by default: {!add}, {!observe} and {!span} are a
    single flag load when {!enabled} is false, so instrumented hot paths
    stay within a <2% overhead budget ([bin/ci.sh] gates the enabled
    cost on the paired median of bench/perf's traced resnet18-simba run). *)

type counter
(** Handle to a named monotonic counter. Handles stay valid across
    {!reset}, which zeroes values without dropping registrations. *)

type histogram
(** Handle to a named latency histogram: count / sum / min / max plus
    power-of-two duration buckets (~1µs to ~32s). *)

val set_enabled : bool -> unit
(** Turn the registry on or off. Off (the default) makes every recording
    operation a near-free no-op. *)

val enabled : unit -> bool

val counter : string -> counter
(** Find-or-register the counter with this name. *)

val add : counter -> int -> unit
(** Add to a counter; no-op while disabled. *)

val incr : counter -> unit

val count : string -> int -> unit
(** One-shot [add (counter name) n]; prefer a pre-registered handle on hot
    paths. No-op (and no registration) while disabled. *)

val histogram : string -> histogram
(** Find-or-register the histogram with this name. *)

val observe : histogram -> float -> unit
(** Record one duration (seconds); no-op while disabled. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] into [histogram name]. While disabled it is
    exactly [f ()] — no clock reads. The duration is recorded even when
    [f] raises. *)

(** {1 Snapshots: plain data for export and cross-process merge} *)

type hist = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** 0.0 when [h_count = 0] *)
  h_max : float;  (** 0.0 when [h_count = 0] *)
  h_buckets : int array;
}

type snapshot = {
  s_counters : (string * int) list;  (** sorted by name *)
  s_hists : (string * hist) list;  (** sorted by name *)
}
(** Immutable, marshal-safe copy of the registry (plain strings, ints,
    floats and arrays — safe to ship through [Parpool]'s reply frames). *)

val reset : unit -> unit
(** Zero every registered counter and histogram in place. Existing handles
    remain valid and keep pointing at the (now zeroed) registrations. *)

val snapshot : unit -> snapshot

val merge : snapshot -> unit
(** Add a snapshot's counts into the current registry: counters add,
    histogram counts/sums/buckets add, min/max combine. Works regardless of
    the enabled flag — the parent merges worker frames even though its own
    recording guard already passed. *)

(** {1 Export} *)

val to_json : snapshot -> string
(** Pretty-printed JSON document ([{"v":1,"kind":"telemetry","counters":
    {...},"histograms":{...}}]). Hand-rolled so this library stays
    dependency-free; the output parses with [Sun_serve.Json]. *)

val to_table : snapshot -> string
(** Human-readable aligned tables (counters, then histograms), ready to
    print. *)

val save : string -> snapshot -> (unit, string) result
(** [save path s] writes [to_json s] (newline-terminated) to [path],
    truncating any previous contents — shared by the CLI's [--metrics]
    final write and the serving daemon's SIGHUP re-open. [Error msg] when
    the file cannot be opened; never raises. *)

val num_buckets : int
(** Number of histogram buckets; [h_buckets] arrays have this length. *)
