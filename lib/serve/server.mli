(** Long-lived scheduling daemon: the batch pipeline behind a socket.

    [sunstone serve --listen ADDR] keeps one process resident so repeated
    scheduling queries amortize cache warm-up instead of paying a cold
    start per batch (the workflow the paper's Table VIII scalability
    argument assumes: many independent per-layer requests arriving over
    time). The daemon speaks the exact wire protocol of {!Pipeline}: one
    JSON request per line in, one JSON response per line out, re-sequenced
    to input order {e per connection}.

    {2 Ownership}

    The accept loop, the cache and the in-flight fingerprint table all
    live in the parent process; classification, fingerprint dedup and
    reply handling are {!Pipeline}'s routing core, the same code that
    drives [sunstone batch]:

    {v
              clients ──┐
    ┌─────────────────────────────────────────────┐
    │ parent: select loop                         │
    │   accept / read / write connections         │
    │   classify  (sole Cache reader+writer)      │
    │   in-flight fingerprint dedup (global)      │
    │   EDF ready queue + admission control       │
    └──────────────┬──────────────────────────────┘
                   │ framed jobs / replies
          ┌────────┴────────┐
          │ Parpool workers │  compute only, cache-blind
          └─────────────────┘
    v}

    Workers never see the cache or each other; duplicate fingerprints
    from {e different} connections dedup to a single compute exactly like
    duplicates inside one batch. Because the daemon and [batch] route
    through the same core, a single cold connection replaying a batch
    input receives byte-identical responses (modulo [wall_s]) to
    [sunstone batch --jobs 1] — [bin/ci.sh] enforces this. A duplicate
    parked behind a fingerprint is routed again when it lands even if its
    connection has closed: a cache hit is counted with its bytes dropped,
    and a miss is dropped at dispatch, never computed.

    {2 Deadlines and shedding}

    A request may carry ["deadline_ms": N] (non-negative integer):
    relative milliseconds from arrival, tracked on the {e monotonic}
    clock ({!Sun_util.Stopwatch.monotonic_now} — a wall-clock step never
    expires or reorders anything). Queued compute work is dispatched
    earliest-deadline-first ({!Edf}); requests without a deadline sort
    last and drain FIFO among themselves, preserving batch order. A
    request still queued when its deadline passes is answered with a
    ["deadline exceeded"] error instead of being computed; deadlines
    govern queueing only — work already on a worker is never preempted,
    and a duplicate parked on another request's fingerprint is checked
    when that fingerprint lands. Cache hits and malformed requests are
    answered immediately and never expire.

    With [~max_queue:n], a request arriving while [n] admitted requests
    are still unanswered is shed with a ["status":"overloaded"] response
    (carrying the echoed id plus [queue] / [max_queue]) rather than
    queued — bounded latency instead of unbounded backlog.

    {2 Control requests and drain}

    [{"control":"stats"}] (optionally with an ["id"]) bypasses admission
    and answers with ["status":"stats"]: the live telemetry registry as
    JSON plus a [server] object of daemon counters. Unknown controls get
    an error response.

    Drain ([~drain_flag] set, typically from SIGTERM): stop accepting
    connections and reading further input, answer everything already
    admitted, flush and close every connection, then return — zero
    admitted requests are lost. A client that never reads its pending
    responses cannot hold the drain open forever: [~drain_grace] seconds
    after the drain began, connections still unflushed are force-closed.
    [~force_flag] (typically a {e second} SIGTERM) escalates to immediate
    shutdown — every connection is dropped and in-flight compute
    abandoned. [~hup_flag] (SIGHUP) rewrites the metrics snapshot to
    [~metrics_path] whenever set, re-creating the file if it was rotated
    away. *)

(** A listening address: ["unix:PATH"], ["tcp:HOST:PORT"] or plain
    ["HOST:PORT"]. *)
type listen = Unix_socket of string | Tcp of string * int

val parse_listen : string -> (listen, string) result

val listener : listen -> (Unix.file_descr, string) result
(** Bind + listen. A pre-existing Unix socket path is unlinked first
    (stale sockets from a killed daemon must not block restart); TCP
    sockets get [SO_REUSEADDR]. *)

val close_listener : listen -> Unix.file_descr -> unit
(** Close the listening fd and unlink a Unix socket path. Never raises. *)

(** {2 Client helpers} *)

val connect : listen -> (Unix.file_descr, string) result

val replay : Unix.file_descr -> string list -> string list
(** [replay fd lines] writes every line, shuts down the write side, reads
    until EOF and returns the response lines; closes [fd]. Suited to
    request sets that fit in socket buffers (the daemon buffers its output
    in memory, so only the {e requests} need to fit in flight). If the
    daemon closes the connection mid-replay the remaining writes are
    abandoned and whatever responses it already sent are still returned —
    callers must ignore [SIGPIPE] for the write failure to surface as
    [EPIPE] rather than kill the process (the CLI client does). *)

(** {2 The daemon} *)

type summary = {
  connections : int;  (** connections accepted *)
  requests : int;  (** non-blank, non-control request lines admitted or shed *)
  hits : int;
  computed : int;
  errors : int;  (** error responses, including expiries *)
  overloaded : int;  (** requests shed by admission control (not in [errors]) *)
  expired : int;  (** subset of [errors] answered ["deadline exceeded"] *)
  wall_s : float;
  cache_stats : Cache.stats option;
}

val serve :
  ?cache:Cache.t ->
  ?config:Sun_core.Optimizer.config ->
  ?jobs:int ->
  ?max_queue:int ->
  ?max_conns:int ->
  ?now:(unit -> float) ->
  ?drain_flag:bool ref ->
  ?force_flag:bool ref ->
  ?drain_grace:float ->
  ?hup_flag:bool ref ->
  ?metrics_path:string ->
  ?exit_after_conns:int ->
  listen_fd:Unix.file_descr ->
  unit ->
  summary
(** Runs the accept loop until drained. [?jobs] (default 1, clamped up to
    1) sizes the {!Parpool} — even [jobs = 1] computes in a worker so the
    accept loop never blocks on a search, and a worker is forked when the
    first search needs one; workers close the daemon's listening and
    connection fds at fork time so no client fd outlives the parent's
    close. The listen fd and every accepted fd are
    switched to non-blocking ([select] readiness is a hint, not a
    guarantee). [?max_queue] (default unbounded) is the admission bound;
    [?max_conns] (default 900) bounds concurrently open connections so fd
    numbers stay below [select]'s FD_SETSIZE — at the cap new accepts wait
    in the kernel backlog until a connection closes. [?now] (default
    {!Sun_util.Stopwatch.monotonic_now}) is the deadline clock, injectable
    for tests; [?drain_flag] / [?force_flag] / [?hup_flag] are polled
    every loop iteration (set them from signal handlers); [?drain_grace]
    (default 30 s) bounds how long a drain waits for clients to read
    their responses; [?metrics_path] is where a [hup_flag] tick rewrites
    the telemetry snapshot.

    [?exit_after_conns:n] makes the loop drain on its own once [n]
    connections have been accepted, every connection has closed and no
    work is outstanding — the in-process harness used by the tests, which
    cannot deliver signals to themselves mid-[serve]. *)
