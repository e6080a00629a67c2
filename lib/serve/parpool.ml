module Tel = Sun_telemetry.Metrics

type 'b reply = Done of 'b | Failed of string | Crashed

type 'a job = {
  key : int;
  payload : 'a;
  attempt : int;
  started : float;  (** dispatch timestamp; 0. when telemetry is off *)
}

type 'a worker = {
  pid : int;
  ord : int;  (** spawn ordinal, keys the per-worker utilization counters *)
  to_worker : Unix.file_descr;  (** parent writes job frames *)
  from_worker : Unix.file_descr;  (** parent reads reply frames *)
  mutable current : 'a job option;
}

type ('a, 'b) t = {
  job_count : int;
  f : 'a -> 'b;
  on_child_fork : unit -> unit;
      (** runs in every freshly forked worker, releasing caller-owned fds *)
  mutable workers : 'a worker list;
  mutable spawned : int;  (** workers ever spawned, including respawns *)
  completed : (int * 'b reply) Queue.t;
      (** results produced outside [next]'s read path (crashed retries) *)
  mutable closed : bool;
}

(* ------------------------------------------------------------------ *)
(* Length-prefixed framing over raw fds                                *)
(* ------------------------------------------------------------------ *)

(* Upper bound on an announced frame length: anything bigger than this is
   not a frame we ever send, so the peer must be corrupt. *)
let frame_limit = 1 lsl 30

let rec write_all fd buf ofs len =
  if len > 0 then begin
    let n =
      match Unix.write fd buf ofs len with
      | n -> n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd buf (ofs + n) (len - n)
  end

let write_frame fd s =
  let n = String.length s in
  let hdr = Bytes.create 8 in
  Bytes.set_int64_be hdr 0 (Int64.of_int n);
  write_all fd hdr 0 8;
  write_all fd (Bytes.of_string s) 0 n

let rec read_all fd buf ofs len =
  if len = 0 then true
  else
    match Unix.read fd buf ofs len with
    | 0 -> false
    | n -> read_all fd buf (ofs + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all fd buf ofs len

(* [None] on EOF, short read, unreadable fd or absurd length: every one of
   those means the peer is gone or corrupt, which callers treat alike. *)
let read_frame fd =
  match
    let hdr = Bytes.create 8 in
    if not (read_all fd hdr 0 8) then None
    else
      let n = Int64.to_int (Bytes.get_int64_be hdr 0) in
      if n < 0 || n > frame_limit then None
      else
        let buf = Bytes.create n in
        if read_all fd buf 0 n then Some (Bytes.to_string buf) else None
  with
  | r -> r
  | exception Unix.Unix_error (_, _, _) -> None

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

(* Children exit through [Unix._exit]: running [at_exit] in a fork would
   re-flush whatever buffered channels the parent had open. *)
let worker_loop f rd wr =
  let rec loop () =
    match read_frame rd with
    | None -> Unix._exit 0 (* parent closed the job pipe: normal shutdown *)
    | Some frame ->
      let reply =
        match f (Marshal.from_string frame 0) with
        | b -> Ok b
        | exception e -> Error (Printexc.to_string e)
      in
      (match write_frame wr (Marshal.to_string (reply : (_, string) result) []) with
      | () -> loop ()
      | exception _ -> Unix._exit 1)
  in
  loop ()

let spawn t =
  let ord = t.spawned in
  t.spawned <- t.spawned + 1;
  let job_r, job_w = Unix.pipe ~cloexec:false () in
  let res_r, res_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
    (* Close every parent-side fd of the *other* workers: a sibling holding
       a duplicate of a dead worker's pipe would hide its EOF forever. *)
    List.iter
      (fun w ->
        (try Unix.close w.to_worker with Unix.Unix_error (_, _, _) -> ());
        try Unix.close w.from_worker with Unix.Unix_error (_, _, _) -> ())
      t.workers;
    Unix.close job_w;
    Unix.close res_r;
    (* Same reasoning for fds the *caller* owns (listening sockets, client
       connections): a worker respawned mid-serve would otherwise hold
       them for its whole lifetime, so a peer the caller closes never sees
       EOF. The hook runs in every child, initial and respawned alike. *)
    (* sunstone-lint: allow SA064 a child escape would rerun the parent's control flow *)
    (try t.on_child_fork () with _ -> ());
    (* sunstone-lint: allow SA064 ditto: the fork must reach _exit no matter what *)
    (try worker_loop t.f job_r res_w with _ -> ());
    Unix._exit 1
  | pid ->
    Unix.close job_r;
    Unix.close res_w;
    { pid; ord; to_worker = job_w; from_worker = res_r; current = None }

(* ------------------------------------------------------------------ *)
(* Parent side                                                         *)
(* ------------------------------------------------------------------ *)

let create ?(on_child_fork = fun () -> ()) ~jobs ~f () =
  if jobs < 1 then invalid_arg "Parpool.create: jobs must be >= 1";
  (* Writes to a worker that died must raise EPIPE, not kill the parent. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    job_count = jobs;
    f;
    on_child_fork;
    workers = [];
    spawned = 0;
    completed = Queue.create ();
    closed = false;
  }

let jobs t = t.job_count

(* Workers not forked yet count as idle: [submit] forks them on demand. *)
let idle t =
  t.job_count - List.length t.workers
  + List.length (List.filter (fun w -> Option.is_none w.current) t.workers)

let pending t =
  List.length (List.filter (fun w -> Option.is_some w.current) t.workers)
  + Queue.length t.completed

let reap t w =
  (try Unix.close w.to_worker with Unix.Unix_error (_, _, _) -> ());
  (try Unix.close w.from_worker with Unix.Unix_error (_, _, _) -> ());
  (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error (_, _, _) -> ());
  t.workers <- List.filter (fun w' -> w'.pid <> w.pid) t.workers

(* Parent-side pool accounting ([parpool.*] namespace). Deliberately not
   part of the jobs-1-vs-jobs-N counter-parity surface: the per-worker
   counters, and respawns under a crash, depend on the worker count. *)
let tally_dispatch w =
  if Tel.enabled () then begin
    Tel.count "parpool.dispatched" 1;
    Tel.count (Printf.sprintf "parpool.worker%d.jobs" w.ord) 1
  end

let tally_respawn ~retrying =
  if Tel.enabled () then begin
    Tel.count "parpool.respawned" 1;
    Tel.count (if retrying then "parpool.retried" else "parpool.gave_up") 1
  end

(* Hand [job] to [w]; on a write failure the worker died while idle, so it
   is replaced and the job retried (once) on the replacement. *)
let rec send t w job =
  match write_frame w.to_worker (Marshal.to_string job.payload []) with
  | () ->
    w.current <- Some job;
    tally_dispatch w
  | exception Unix.Unix_error (_, _, _) ->
    reap t w;
    let w' = spawn t in
    t.workers <- t.workers @ [ w' ];
    tally_respawn ~retrying:(job.attempt = 0);
    if job.attempt = 0 then send t w' { job with attempt = 1 }
    else Queue.add (job.key, Crashed) t.completed

let submit t ~key payload =
  if t.closed then invalid_arg "Parpool.submit: pool is shut down";
  let idle_worker =
    match List.find_opt (fun w -> Option.is_none w.current) t.workers with
    | Some w -> Some w
    | None when List.length t.workers < t.job_count ->
      let w = spawn t in
      t.workers <- t.workers @ [ w ];
      Some w
    | None -> None
  in
  match idle_worker with
  | None -> invalid_arg "Parpool.submit: no idle worker (check Parpool.idle first)"
  | Some w ->
    (* sunstone-lint: allow SA063 telemetry-only timing; never reaches scheduling or the wire *)
    let started = if Tel.enabled () then Unix.gettimeofday () else 0.0 in
    send t w { key; payload; attempt = 0; started }

(* The worker died mid-job: replace it and either retry the job on the
   replacement or, if this already was the retry, give up on the job. *)
let crash t w job =
  reap t w;
  let w' = spawn t in
  t.workers <- t.workers @ [ w' ];
  if Tel.enabled () then Tel.count "parpool.crashed" 1;
  tally_respawn ~retrying:(job.attempt = 0);
  if job.attempt = 0 then send t w' { job with attempt = 1 }
  else Queue.add (job.key, Crashed) t.completed

let busy_fds t =
  List.filter_map
    (fun w -> if Option.is_some w.current then Some w.from_worker else None)
    t.workers

(* Shared read path of [next] / [try_next]. [block = false] polls (zero
   select timeout) and returns [None] when no completion is ready;
   [block = true] waits indefinitely, returning [None] only when nothing is
   pending at all. A crash mid-read respawns the worker and loops: the
   retried job is in flight again, so the poll path re-checks for other
   ready completions rather than reporting anything. *)
let rec collect t ~block =
  match Queue.take_opt t.completed with
  | Some r -> Some r
  | None -> (
    let busy = List.filter (fun w -> Option.is_some w.current) t.workers in
    if busy = [] then None
    else
      let timeout = if block then -1.0 else 0.0 in
      let ready, _, _ =
        match Unix.select (List.map (fun w -> w.from_worker) busy) [] [] timeout with
        | r -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      match List.find_opt (fun w -> List.mem w.from_worker ready) busy with
      | None -> if block then collect t ~block else None
      | Some w -> (
        match w.current with
        | None -> collect t ~block
        | Some job -> (
          match read_frame w.from_worker with
          | Some frame -> (
            w.current <- None;
            if Tel.enabled () then begin
              Tel.count "parpool.completed" 1;
              if job.started > 0.0 then
                (* sunstone-lint: allow SA063 telemetry-only histogram sample *)
                Tel.observe (Tel.histogram "parpool.job_s") (Unix.gettimeofday () -. job.started)
            end;
            match (Marshal.from_string frame 0 : (_, string) result) with
            | Ok b -> Some (job.key, Done b)
            | Error msg ->
              if Tel.enabled () then Tel.count "parpool.failed" 1;
              Some (job.key, Failed msg)
            | exception _ ->
              (* unmarshalable reply: treat like a dead worker *)
              crash t w job;
              collect t ~block)
          | None ->
            crash t w job;
            collect t ~block)))

let next t =
  match collect t ~block:true with
  | Some r -> r
  | None -> invalid_arg "Parpool.next: nothing pending"

let try_next t = collect t ~block:false

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    (* Closing the job pipes makes idle workers exit on their own; busy or
       wedged ones are terminated so shutdown can never hang. *)
    List.iter
      (fun w -> try Unix.close w.to_worker with Unix.Unix_error (_, _, _) -> ())
      t.workers;
    List.iter
      (fun w ->
        (try Unix.kill w.pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
        (try Unix.close w.from_worker with Unix.Unix_error (_, _, _) -> ());
        try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error (_, _, _) -> ())
      t.workers;
    t.workers <- []
  end
