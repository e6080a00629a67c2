(** Fork-based worker pool for embarrassingly parallel request batches.

    Sunstone's per-request searches are independent (the paper's
    scalability argument, Table VIII, schedules every layer separately),
    so the serving layer can fan them out across processes without any
    shared state. This module is the generic substrate: a fixed-size pool
    of [Unix.fork]ed workers, each running the same job function in a loop
    over a pair of pipes.

    Wire protocol: every job and every reply is one length-prefixed frame
    — an 8-byte big-endian payload length followed by the [Marshal]ed
    value. Workers are forked from the calling process, so marshalling of
    plain data (no closures, no custom blocks) is safe in both directions.
    Frames with an absurd announced length (negative or over 1 GiB) are
    treated as a protocol breach, i.e. a worker crash.

    Crash containment: a worker that dies mid-job (killed, segfault,
    unmarshalable reply) is reaped, a fresh worker is forked in its place,
    and the in-flight job is retried once. If the retry also dies the job
    is reported as {!Crashed} — the pool itself keeps serving; one bad
    request can never abort the batch. A job function that merely
    {e raises} is reported as {!Failed} without retry (a deterministic
    exception would fail again) and the worker survives.

    The pool never degrades the calling process: workers exit through
    [Unix._exit], so inherited buffered channels are never double-flushed.
    {!create} sets [SIGPIPE] to ignore for the whole process (writes to a
    dead worker must surface as [EPIPE], not kill the parent) — acceptable
    for the CLI/bench/server processes this library serves.

    Jobs are identified by an integer [key] chosen by the caller;
    completions arrive in whatever order workers finish, so callers that
    need input order must re-sequence by key (see {!Pipeline}). *)

type ('a, 'b) t
(** A pool mapping ['a] jobs to ['b] results. *)

type 'b reply =
  | Done of 'b  (** the job function returned normally *)
  | Failed of string  (** the job function raised; payload is [Printexc.to_string] *)
  | Crashed  (** the worker process died twice running this job *)

val create : ?on_child_fork:(unit -> unit) -> jobs:int -> f:('a -> 'b) -> unit -> ('a, 'b) t
(** [create ~jobs ~f ()] is a pool of up to [jobs] workers each looping
    [f] over framed jobs. It forks nothing itself: {!submit} forks a worker
    when no forked one is idle and fewer than [jobs] exist, so a caller that
    never submits (a batch of cache hits) never forks. [jobs] must be at
    least 1 ([Invalid_argument] otherwise): every job runs in a forked
    worker, never in the calling process.

    [?on_child_fork] runs inside {e every} freshly forked worker — the
    first [jobs] and every respawn after a crash — before the job loop
    starts. Callers that hold fds workers must not inherit (a server's
    listening socket and client connections: a worker keeping a duplicate
    alive means a peer never sees EOF after the caller closes its end)
    close them here; the hook should only close fds and never raise
    (exceptions are swallowed). It is called at fork time, so a server's
    hook sees exactly the connections open at that moment. *)

val jobs : ('a, 'b) t -> int
(** The configured worker count (constant: crashed workers are replaced). *)

val idle : ('a, 'b) t -> int
(** Workers currently without an in-flight job, counting those not forked
    yet. *)

val pending : ('a, 'b) t -> int
(** Completions {!next} still has to deliver: in-flight jobs plus results
    already collected internally (e.g. a give-up after a crashed retry). *)

val submit : ('a, 'b) t -> key:int -> 'a -> unit
(** Hands a job to an idle worker, forking one when no forked worker is
    idle. [Invalid_argument] if {!idle} is [0] or the pool was
    {!shutdown}; callers drive admission with {!idle}. *)

val next : ('a, 'b) t -> int * 'b reply
(** Blocks until some in-flight job completes and returns [(key, reply)].
    [Invalid_argument] if {!pending} is [0]. *)

val try_next : ('a, 'b) t -> (int * 'b reply) option
(** Non-blocking {!next}: returns an already-available completion, or
    [None] when no in-flight job has finished yet (or nothing is pending).
    For event-loop callers that multiplex the pool with other fds. *)

val busy_fds : ('a, 'b) t -> Unix.file_descr list
(** Reply-pipe fds of workers with an in-flight job, for inclusion in an
    external [Unix.select]: readability means {!try_next} will make
    progress. Idle workers' fds are deliberately excluded — a worker that
    dies while idle leaves its pipe permanently readable (EOF), which
    would spin the caller's select; idle deaths are instead detected
    lazily by {!submit}'s write failure, which respawns and retries. *)

val shutdown : ('a, 'b) t -> unit
(** Terminates and reaps every worker (idempotent). In-flight jobs are
    abandoned. *)
