module Opt = Sun_core.Optimizer
module Tel = Sun_telemetry.Metrics

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)
(* ------------------------------------------------------------------ *)

type listen = Unix_socket of string | Tcp of string * int

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let after_prefix p s = String.sub s (String.length p) (String.length s - String.length p)

let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "%s: expected unix:PATH or HOST:PORT" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
    | _ -> Error (Printf.sprintf "%s: invalid port %S" s port))

let parse_listen s =
  if has_prefix "unix:" s then
    let path = after_prefix "unix:" s in
    if path = "" then Error "unix: empty socket path" else Ok (Unix_socket path)
  else if has_prefix "tcp:" s then parse_host_port (after_prefix "tcp:" s)
  else parse_host_port s

let resolve_host host =
  if host = "" || host = "localhost" then Ok Unix.inet_addr_loopback
  else
    match Unix.inet_addr_of_string host with
    | addr -> Ok addr
    | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
        Error (Printf.sprintf "%s: unknown host" host)
      | h -> Ok h.Unix.h_addr_list.(0))

let sockaddr = function
  | Unix_socket path -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
    Result.map (fun addr -> (Unix.PF_INET, Unix.ADDR_INET (addr, port))) (resolve_host host)

let unix_error_string e fn = Printf.sprintf "%s: %s" fn (Unix.error_message e)

let listener l =
  match sockaddr l with
  | Error e -> Error e
  | Ok (domain, addr) -> (
    (* a stale socket left by a killed daemon must not block restart *)
    (match l with
    | Unix_socket path when Sys.file_exists path -> (
      try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
    | _ -> ());
    match Unix.socket domain Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error (e, fn, _) -> Error (unix_error_string e fn)
    | fd -> (
      match
        (match l with Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true | Unix_socket _ -> ());
        Unix.bind fd addr;
        Unix.listen fd 64
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, fn, _) ->
        (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
        Error (unix_error_string e fn)))

let close_listener l fd =
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
  match l with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | Tcp _ -> ()

(* ------------------------------------------------------------------ *)
(* Client helpers                                                      *)
(* ------------------------------------------------------------------ *)

let connect l =
  match sockaddr l with
  | Error e -> Error e
  | Ok (domain, addr) -> (
    match Unix.socket domain Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error (e, fn, _) -> Error (unix_error_string e fn)
    | fd -> (
      match Unix.connect fd addr with
      | () -> Ok fd
      | exception Unix.Unix_error (e, fn, _) ->
        (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
        Error (unix_error_string e fn)))

let rec write_all fd s ofs len =
  if len > 0 then begin
    let n =
      match Unix.write_substring fd s ofs len with
      | n -> n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (ofs + n) (len - n)
  end

let replay fd lines =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      (* A daemon may close the connection before the whole request stream
         is written (kill_conn on a protocol error, escalated shutdown);
         whatever responses it sent first are still buffered in the
         socket, so a failed write falls through to the read loop instead
         of raising away from them. Callers must have SIGPIPE ignored for
         the failure to surface as EPIPE here. *)
      (try
         List.iter
           (fun line ->
             write_all fd line 0 (String.length line);
             write_all fd "\n" 0 1)
           lines;
         Unix.shutdown fd Unix.SHUTDOWN_SEND
       with Unix.Unix_error (_, _, _) -> ());
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec read_loop () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          read_loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_loop ()
        | exception Unix.Unix_error (_, _, _) -> ()
      in
      read_loop ();
      List.filter (fun s -> s <> "") (String.split_on_char '\n' (Buffer.contents buf)))

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

(* One client connection. Replies are re-sequenced per connection: every
   admitted line gets a reply slot [ord] at read time, finished responses
   land in [replies] and are flushed to [outq] strictly in slot order, so
   output order always equals input order no matter how the EDF queue or
   the worker pool reorder the compute. *)
type conn = {
  fd : Unix.file_descr;
  cid : int;
  inbuf : Buffer.t;  (** bytes of a not-yet-terminated input line *)
  mutable lines_read : int;  (** input lines seen, blank ones included *)
  mutable admitted : int;  (** reply slots assigned *)
  mutable next_emit : int;  (** next reply slot to flush to [outq] *)
  replies : (int, string) Hashtbl.t;  (** finished slots awaiting flush *)
  outq : string Queue.t;  (** wire bytes pending write *)
  mutable out_ofs : int;  (** progress into [Queue.peek outq] *)
  mutable eof : bool;  (** peer shut its write side down *)
}

(* Where an admitted request's response goes: reply slot [ord] of
   connection [cid]. Its job key is the global admission ordinal: the EDF
   tie-break (so equal deadlines drain FIFO) and the pool key (unique
   because a request is dispatched at most once). *)
type slot = {
  cid : int;
  ord : int;
  deadline : float;  (** absolute monotonic seconds; [infinity] = none *)
}

type item = slot Pipeline.job

type state = {
  conns : (int, conn) Hashtbl.t;
  ready : item Edf.t;  (** classified for dispatch, awaiting an idle worker *)
  mutable next_cid : int;
  mutable next_seq : int;
  mutable waiting : int;  (** admitted requests not yet answered *)
  mutable draining : bool;
  mutable s_connections : int;
  mutable s_requests : int;
  mutable s_hits : int;
  mutable s_computed : int;
  mutable s_errors : int;
  mutable s_overloaded : int;
  mutable s_expired : int;
}

let make_state () =
  {
    conns = Hashtbl.create 16;
    ready = Edf.create ();
    next_cid = 0;
    next_seq = 0;
    waiting = 0;
    draining = false;
    s_connections = 0;
    s_requests = 0;
    s_hits = 0;
    s_computed = 0;
    s_errors = 0;
    s_overloaded = 0;
    s_expired = 0;
  }

(* ------------------------------------------------------------------ *)
(* Connection output                                                   *)
(* ------------------------------------------------------------------ *)

let kill_conn st conn =
  (try Unix.close conn.fd with Unix.Unix_error (_, _, _) -> ());
  Hashtbl.remove st.conns conn.cid

(* A connection closes once its input side is done (peer EOF, or the
   daemon is draining and will not read more) and every admitted line has
   been answered and written out. *)
let maybe_close st conn =
  if
    (conn.eof || st.draining)
    && conn.next_emit = conn.admitted
    && Queue.is_empty conn.outq
  then kill_conn st conn

let flush_conn conn =
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt conn.replies conn.next_emit with
    | Some s ->
      Hashtbl.remove conn.replies conn.next_emit;
      conn.next_emit <- conn.next_emit + 1;
      Queue.add (s ^ "\n") conn.outq
    | None -> continue := false
  done

let answer conn ord text =
  Hashtbl.replace conn.replies ord text;
  flush_conn conn

(* Settle an admitted request with its final response. The outcome is
   tallied even when the requesting connection is already gone — the work
   happened; only the bytes have nowhere to go. *)
let settle st (item : item) outcome response =
  st.waiting <- st.waiting - 1;
  Pipeline.tally outcome;
  (match outcome with
  | Pipeline.Hit -> st.s_hits <- st.s_hits + 1
  | Pipeline.Computed -> st.s_computed <- st.s_computed + 1
  | Pipeline.Failed -> st.s_errors <- st.s_errors + 1);
  match Hashtbl.find_opt st.conns item.slot.cid with
  | Some conn -> answer conn item.slot.ord response
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Responses specific to the daemon                                    *)
(* ------------------------------------------------------------------ *)

let overloaded_response ~id ~line ~queue ~max_queue =
  Json.Obj
    [
      ("v", Json.Int Codec.version);
      ("id", Json.String id);
      ("status", Json.String "overloaded");
      ("line", Json.Int line);
      ("error", Json.String "overloaded: admission queue full");
      ("queue", Json.Int queue);
      ("max_queue", Json.Int max_queue);
    ]

let stats_response st ~id =
  let telemetry =
    match Json.of_string (Tel.to_json (Tel.snapshot ())) with
    | Ok j -> j
    | Error _ -> Json.Obj []
  in
  Json.Obj
    [
      ("v", Json.Int Codec.version);
      ("id", Json.String id);
      ("status", Json.String "stats");
      ( "server",
        Json.Obj
          [
            ("connections", Json.Int st.s_connections);
            ("open_connections", Json.Int (Hashtbl.length st.conns));
            ("requests", Json.Int st.s_requests);
            ("hits", Json.Int st.s_hits);
            ("computed", Json.Int st.s_computed);
            ("errors", Json.Int st.s_errors);
            ("overloaded", Json.Int st.s_overloaded);
            ("expired", Json.Int st.s_expired);
            ("queued", Json.Int (Edf.length st.ready));
            ("waiting", Json.Int st.waiting);
          ] );
      ("telemetry", telemetry);
    ]

let parse_deadline ~now json =
  match Json.member "deadline_ms" json with
  | None -> Ok infinity
  | Some (Json.Int ms) when ms >= 0 -> Ok (now +. (float_of_int ms /. 1000.))
  | Some _ -> Error "bad request: deadline_ms must be a non-negative integer"

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let expire st (item : item) =
  Tel.count "serve.expired" 1;
  st.s_expired <- st.s_expired + 1;
  settle st item Pipeline.Failed
    (Json.to_string
       (Pipeline.crash_error_response ~index:item.index ~line:item.line "deadline exceeded"))

(* Pop the ready queue in (deadline, admission) order while workers are
   idle. Requests whose deadline already passed, and requests whose
   connection died, are settled or dropped here rather than computed;
   either way their fingerprint is released so parked duplicates rerun. *)
let rec dispatch_ready st r ~now =
  if Parpool.idle (Pipeline.pool r) > 0 && not (Edf.is_empty st.ready) then begin
    let item = Edf.pop st.ready in
    (if not (Hashtbl.mem st.conns item.slot.cid) then begin
       st.waiting <- st.waiting - 1;
       Pipeline.release r item
     end
     else if item.slot.deadline < now () then begin
       expire st item;
       Pipeline.release r item
     end
     else Pipeline.submit r item);
    dispatch_ready st r ~now
  end

(* ------------------------------------------------------------------ *)
(* Input                                                               *)
(* ------------------------------------------------------------------ *)

let process_line st r ~max_queue ~now conn line =
  conn.lines_read <- conn.lines_read + 1;
  let idx = conn.lines_read - 1 in
  if String.trim line <> "" then begin
    let json = Json.of_string line in
    let id =
      match json with
      | Ok j -> Pipeline.request_id ~index:idx j
      | Error _ -> Pipeline.default_id ~index:idx
    in
    let ord = conn.admitted in
    conn.admitted <- ord + 1;
    let control = match json with Ok j -> Json.member "control" j | Error _ -> None in
    match control with
    | Some (Json.String "stats") -> answer conn ord (Json.to_string (stats_response st ~id))
    | Some v ->
      answer conn ord
        (Json.to_string
           (Pipeline.error_response ~line:(idx + 1) ~id
              (Printf.sprintf "unknown control request %s" (Json.to_string v))))
    | None -> (
      st.s_requests <- st.s_requests + 1;
      Tel.count "serve.requests" 1;
      if st.waiting >= max_queue then begin
        Tel.count "serve.overloaded" 1;
        st.s_overloaded <- st.s_overloaded + 1;
        answer conn ord
          (Json.to_string
             (overloaded_response ~id ~line:(idx + 1) ~queue:st.waiting ~max_queue))
      end
      else
        let deadline =
          (* an unparsable line carries no deadline; classification below
             turns it into the same parse-error response batch would give *)
          match json with Error _ -> Ok infinity | Ok j -> parse_deadline ~now:(now ()) j
        in
        match deadline with
        | Error msg ->
          Pipeline.tally Pipeline.Failed;
          st.s_errors <- st.s_errors + 1;
          answer conn ord (Json.to_string (Pipeline.error_response ~line:(idx + 1) ~id msg))
        | Ok deadline ->
          let seq = st.next_seq in
          st.next_seq <- seq + 1;
          st.waiting <- st.waiting + 1;
          Pipeline.route r
            (Pipeline.job ~key:seq ~index:idx ~line { cid = conn.cid; ord; deadline }))
  end

let read_conn st r ~max_queue ~now conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> kill_conn st conn
  | 0 ->
    conn.eof <- true;
    (* a final line without a terminating newline still counts, matching
       [input_line] semantics in the batch drivers *)
    if Buffer.length conn.inbuf > 0 then begin
      let line = Buffer.contents conn.inbuf in
      Buffer.clear conn.inbuf;
      process_line st r ~max_queue ~now conn line
    end;
    maybe_close st conn
  | n ->
    Buffer.add_subbytes conn.inbuf chunk 0 n;
    let data = Buffer.contents conn.inbuf in
    Buffer.clear conn.inbuf;
    let pos = ref 0 in
    let continue = ref true in
    while !continue do
      match String.index_from_opt data !pos '\n' with
      | Some nl ->
        let line = String.sub data !pos (nl - !pos) in
        pos := nl + 1;
        process_line st r ~max_queue ~now conn line
      | None ->
        Buffer.add_substring conn.inbuf data !pos (String.length data - !pos);
        continue := false
    done

let write_conn st conn =
  match Queue.peek_opt conn.outq with
  | None -> maybe_close st conn
  | Some s -> (
    match Unix.write_substring conn.fd s conn.out_ofs (String.length s - conn.out_ofs) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> kill_conn st conn
    | n ->
      conn.out_ofs <- conn.out_ofs + n;
      if conn.out_ofs >= String.length s then begin
        ignore (Queue.pop conn.outq);
        conn.out_ofs <- 0
      end;
      maybe_close st conn)

let accept_conn st listen_fd =
  match Unix.accept listen_fd with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd, _ ->
    (* select-writability only promises *some* send-buffer space, so every
       conn fd runs non-blocking: a stalled peer costs an EAGAIN retry on
       the next round, never a blocked accept loop *)
    (try Unix.set_nonblock fd with Unix.Unix_error (_, _, _) -> ());
    let cid = st.next_cid in
    st.next_cid <- cid + 1;
    st.s_connections <- st.s_connections + 1;
    Tel.count "serve.connections" 1;
    let conn =
      {
        fd;
        cid;
        inbuf = Buffer.create 256;
        lines_read = 0;
        admitted = 0;
        next_emit = 0;
        replies = Hashtbl.create 8;
        outq = Queue.create ();
        out_ofs = 0;
        eof = false;
      }
    in
    Hashtbl.replace st.conns cid conn

(* ------------------------------------------------------------------ *)
(* The accept loop                                                     *)
(* ------------------------------------------------------------------ *)

type summary = {
  connections : int;
  requests : int;
  hits : int;
  computed : int;
  errors : int;
  overloaded : int;
  expired : int;
  wall_s : float;
  cache_stats : Cache.stats option;
}

let serve ?cache ?(config = Opt.default_config) ?(jobs = 1) ?(max_queue = max_int)
    ?(max_conns = 900) ?now ?drain_flag ?force_flag ?(drain_grace = 30.) ?hup_flag
    ?metrics_path ?exit_after_conns ~listen_fd () =
  let now = match now with Some f -> f | None -> Sun_util.Stopwatch.monotonic_now in
  let timer = Sun_util.Stopwatch.start () in
  let jobs = max 1 jobs in
  let st = make_state () in
  (* Forked workers must not inherit the daemon's sockets: a child holding
     a duplicate of a conn fd keeps the peer from ever seeing EOF once the
     parent closes its end, so a client reading to EOF would hang for the
     respawned worker's whole lifetime. *)
  let close_sockets_in_child () =
    (try Unix.close listen_fd with Unix.Unix_error (_, _, _) -> ());
    Hashtbl.iter
      (fun _ c -> try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ())
      st.conns
  in
  (* Compute always happens in a worker, even with one job: the accept
     loop must keep multiplexing connections while a search runs. *)
  let r =
    Pipeline.router ?cache ~on_child_fork:close_sockets_in_child ~config ~jobs
      ~answer:(fun item outcome response _wall -> settle st item outcome response)
      ~ready:(fun item -> Edf.push st.ready ~deadline:item.slot.deadline ~seq:item.key item)
      ()
  in
  let pool = Pipeline.pool r in
  Fun.protect ~finally:(fun () -> Parpool.shutdown pool) @@ fun () ->
  (try Unix.set_nonblock listen_fd with Unix.Unix_error (_, _, _) -> ());
  let drain_started = ref None in
  let running = ref true in
  while !running do
    (match drain_flag with Some r when !r -> st.draining <- true | _ -> ());
    (match hup_flag with
    | Some r when !r ->
      r := false;
      (match metrics_path with
      | Some path -> (
        match Tel.save path (Tel.snapshot ()) with Ok () | Error _ -> ())
      | None -> ())
    | _ -> ());
    if st.draining && !drain_started = None then drain_started := Some (now ());
    let kill_all_conns () =
      List.iter (kill_conn st) (Hashtbl.fold (fun _ c acc -> c :: acc) st.conns [])
    in
    (match force_flag with
    | Some r when !r ->
      (* escalated shutdown (second SIGTERM): drop every connection and
         abandon in-flight compute rather than wait on anything *)
      kill_all_conns ();
      running := false
    | _ -> (
      match !drain_started with
      | Some t0 when now () -. t0 > drain_grace ->
        (* a client that never reads its pending responses must not hold
           the drain open forever *)
        kill_all_conns ()
      | _ -> ()));
    if not !running then ()
    else begin
    if st.draining then begin
      (* no more reads: answer what is admitted, close what is finished *)
      let cids = Hashtbl.fold (fun cid _ acc -> cid :: acc) st.conns [] in
      List.iter
        (fun cid ->
          match Hashtbl.find_opt st.conns cid with
          | Some conn -> maybe_close st conn
          | None -> ())
        cids
    end;
    dispatch_ready st r ~now;
    let quiescent =
      Hashtbl.length st.conns = 0 && st.waiting = 0 && Parpool.pending pool = 0
    in
    let idle_exit =
      match exit_after_conns with Some n -> st.s_connections >= n && quiescent | None -> false
    in
    if (st.draining && quiescent) || idle_exit then running := false
    else begin
      let conn_list = Hashtbl.fold (fun _ c acc -> c :: acc) st.conns [] in
      (* [max_conns] keeps every fd number below FD_SETSIZE, which
         [Unix.select] cannot represent: at the cap the listen fd simply
         leaves the read set, deferring accepts to the kernel backlog
         until some connection closes *)
      let accepting = (not st.draining) && Hashtbl.length st.conns < max_conns in
      let rfds =
        (if accepting then [ listen_fd ] else [])
        @ (if st.draining then []
           else List.filter_map (fun c -> if c.eof then None else Some c.fd) conn_list)
        @ Parpool.busy_fds pool
      in
      let wfds =
        List.filter_map (fun c -> if Queue.is_empty c.outq then None else Some c.fd) conn_list
      in
      (* the timeout bounds how stale a signal flag can go unnoticed *)
      match Unix.select rfds wfds [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
      | readable, writable, _ ->
        if accepting && List.mem listen_fd readable then accept_conn st listen_fd;
        let rec drain_pool () =
          match Parpool.try_next pool with
          | Some completion ->
            Pipeline.complete r completion;
            drain_pool ()
          | None -> ()
        in
        drain_pool ();
        List.iter
          (fun c ->
            if List.mem c.fd readable && (not c.eof) && Hashtbl.mem st.conns c.cid then
              read_conn st r ~max_queue ~now c)
          conn_list;
        List.iter
          (fun c ->
            if List.mem c.fd writable && Hashtbl.mem st.conns c.cid then write_conn st c)
          conn_list
    end
    end
  done;
  {
    connections = st.s_connections;
    requests = st.s_requests;
    hits = st.s_hits;
    computed = st.s_computed;
    errors = st.s_errors;
    overloaded = st.s_overloaded;
    expired = st.s_expired;
    wall_s = Sun_util.Stopwatch.elapsed_s timer;
    cache_stats = Option.map Cache.stats cache;
  }
