(* The benchmark's view of `sunstone serve`: spawn it, connect over a Unix
   socket, drive it closed-loop with raw JSONL lines, read its memory
   high-water mark and drain it. Nothing here calls the scheduler's
   libraries (only a monotonic clock), so what is timed is the CLI and the
   wire protocol alone. *)

(* [announce] is the read end of the daemon's standard output and error. *)
type t = { pid : int; sock : string; announce : Unix.file_descr }

let now = Sun_util.Stopwatch.monotonic_now

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
  let deadline = now () +. 60.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.002;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  Unix.close d.announce;
  try Sys.remove d.sock with Sys_error _ -> ()

(* Closed loop: connection [c] sends [lines.(c)] one at a time, each only
   after the previous response arrived. Returns, per connection and in send
   order, each request's send time, receive time and raw response line; the
   response is not parsed here, so checking it never lands inside a timed
   interval. *)
let closed_loop sock (lines : string array array) =
  let n = Array.length lines in
  let fds = Array.init n (fun _ -> connect sock) in
  let close_all () = Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ()) fds in
  Fun.protect ~finally:close_all
  @@ fun () ->
  let results = Array.map (fun ls -> Array.make (Array.length ls) (0.0, 0.0, "")) lines in
  let next = Array.make n 0 in
  let sent_at = Array.make n 0.0 in
  let pending = Array.init n (fun _ -> Buffer.create 4096) in
  let chunk = Bytes.create 65536 in
  let send c =
    sent_at.(c) <- now ();
    write_all fds.(c) (lines.(c).(next.(c)) ^ "\n")
  in
  Array.iteri (fun c ls -> if Array.length ls > 0 then send c) lines;
  let active () = List.filter (fun c -> next.(c) < Array.length lines.(c)) (List.init n Fun.id) in
  let rec loop () =
    match active () with
    | [] -> ()
    | cs ->
      let readable, _, _ =
        try Unix.select (List.map (fun c -> fds.(c)) cs) [] [] 60.0
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun c ->
          if List.mem fds.(c) readable then begin
            let got = Unix.read fds.(c) chunk 0 (Bytes.length chunk) in
            let t = now () in
            if got = 0 then failwith "daemon closed the connection";
            Buffer.add_subbytes pending.(c) chunk 0 got;
            let s = Buffer.contents pending.(c) in
            match String.index_opt s '\n' with
            | None -> ()
            | Some i ->
              Buffer.clear pending.(c);
              Buffer.add_substring pending.(c) s (i + 1) (String.length s - i - 1);
              results.(c).(next.(c)) <- (sent_at.(c), t, String.sub s 0 i);
              next.(c) <- next.(c) + 1;
              if next.(c) < Array.length lines.(c) then send c
          end)
        cs;
      loop ()
  in
  loop ();
  results

(* Waits for the daemon's first line of output, which it writes to
   standard error once it listens: "sunstone: serving on ADDR (pid N)". Blocking on it
   rather than polling the socket keeps the set-up time free of a polling
   interval. *)
let await_announce d =
  let chunk = Bytes.create 256 in
  let rec go seen =
    if String.contains seen '\n' then
      if String.starts_with ~prefix:"sunstone: serving" seen then ()
      else failwith ("daemon did not start: " ^ seen)
    else
      match Unix.select [ d.announce ] [] [] 30.0 with
      | [], _, _ -> failwith "daemon did not start within 30 s"
      | _ ->
        let n = Unix.read d.announce chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith ("daemon exited: " ^ seen) else go (seen ^ Bytes.sub_string chunk 0 n)
  in
  go ""

(* Spawns `cli serve --listen unix:SOCK ARGS` and returns it together with
   its set-up time: from spawn until the daemon has accepted a connection
   and answered a stats control request. *)
let spawn ~cli ~sock ~args =
  let announce, out = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (cli :: "serve" :: "--listen" :: ("unix:" ^ sock) :: args) in
  let t0 = now () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close out) (fun () -> Unix.create_process cli argv Unix.stdin out out)
  in
  let d = { pid; sock; announce } in
  match
    await_announce d;
    closed_loop sock [| [| {|{"control":"stats","id":"setup"}|} |] |]
  with
  | _ -> (d, now () -. t0)
  | exception e ->
    stop d;
    raise e

let vm_hwm_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
          | [] -> acc)
        | _ -> acc)
      0 (String.split_on_char '\n' text)

(* Largest VmHWM over the daemon and its worker processes, in MB. *)
let peak_rss_mb d =
  let children =
    match
      In_channel.with_open_text (Printf.sprintf "/proc/%d/task/%d/children" d.pid d.pid) In_channel.input_all
    with
    | exception Sys_error _ -> []
    | text -> List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim text))
  in
  float_of_int (List.fold_left (fun acc p -> max acc (vm_hwm_kb p)) (vm_hwm_kb d.pid) children) /. 1024.0
