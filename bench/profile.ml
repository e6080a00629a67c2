(* A sampling profiler for in-process runs: every [interval] seconds of
   process CPU time (ITIMER_PROF), the SIGPROF handler records the OCaml
   call stack, and the samples are reported as the share of them each
   function was running in (self) or was on the stack for (inclusive).

   Bias. OCaml 5 runs a signal handler only at the next safepoint (an
   allocation, a function entry or a loop back-edge), so a sample lands on
   the nearest polling point rather than the interrupted instruction, and
   time in a C primitive (hashing, blits, the kernel) goes to the OCaml
   function that called it. A minor or major GC slice runs inside the
   allocation that triggered it, so GC work is charged to allocation
   sites. The kernel checks the timer at its clock tick, so samples come
   no closer than one tick apart (4 ms at 250 Hz), whatever [interval]
   asks. Stacks deeper than [depth] frames lose their outermost frames,
   which then miss their inclusive samples. *)

let interval = 0.001

let depth = 256

(* rows per table *)
let rows = 25

(* [Sun_core__Tile_tree.search] reads as [Tile_tree.search]: the library
   prefix of the module path goes. *)
let short name =
  let dot = Option.value (String.index_opt name '.') ~default:(String.length name) in
  let rec separator i =
    if i < 1 then None else if name.[i] = '_' && name.[i - 1] = '_' then Some i else separator (i - 1)
  in
  match separator (dot - 1) with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let frames stack =
  match Printexc.backtrace_slots stack with
  | None -> []
  | Some slots ->
    Array.to_list slots
    |> List.filter_map (fun slot -> Option.map short (Printexc.Slot.name slot))
    |> List.filter (fun name -> not (String.starts_with ~prefix:"Profile." name))

(* Runs [step ()] under the sampler [times] times, and then on until a
   sample has landed or a second of CPU time has passed: a run shorter
   than the kernel's tick can end with no sample. Returns the number of
   runs and the call stacks sampled, innermost frame first. *)
let sample ~times step =
  let stacks = ref [] in
  let record _ = stacks := Printexc.get_callstack depth :: !stacks in
  let previous = Sys.signal Sys.sigprof (Sys.Signal_handle record) in
  let timer = { Unix.it_interval = interval; it_value = interval } in
  ignore (Unix.setitimer Unix.ITIMER_PROF timer);
  let runs = ref 0 and deadline = ref infinity in
  let rec go () =
    step ();
    incr runs;
    if !runs = times then deadline := Sys.time () +. 1.0;
    if !runs < times || (!stacks = [] && Sys.time () < !deadline) then go ()
  in
  Fun.protect go ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
      Sys.set_signal Sys.sigprof previous);
  (!runs, List.rev_map frames !stacks)

let top n counts =
  Hashtbl.fold (fun name c acc -> (name, c) :: acc) counts []
  |> List.sort (fun (na, a) (nb, b) -> if a <> b then Int.compare b a else String.compare na nb)
  |> List.filteri (fun i _ -> i < n)

(* Prints the [rows] functions with the largest self and inclusive
   shares; returns the number of samples. *)
let report stacks =
  let self = Hashtbl.create 64 and inclusive = Hashtbl.create 64 in
  let bump tbl name =
    Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))
  in
  List.iter
    (fun stack ->
      (match stack with name :: _ -> bump self name | [] -> bump self "(no OCaml frame)");
      List.iter (bump inclusive) (List.sort_uniq String.compare stack))
    stacks;
  let n = List.length stacks in
  let print title counts =
    Printf.printf "%s\n" title;
    List.iter
      (fun (name, c) ->
        Printf.printf "  %5.1f%%  %6d  %s\n" (100.0 *. float_of_int c /. float_of_int n) c name)
      (top rows counts)
  in
  (* a function on every sample's stack (the harness) says nothing *)
  Hashtbl.filter_map_inplace (fun _ c -> if c = n then None else Some c) inclusive;
  if n > 0 then begin
    print "self (share of samples, samples, function)" self;
    print "inclusive, functions on every sample left out (share, samples, function)" inclusive
  end;
  n
