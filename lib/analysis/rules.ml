module D = Diagnostic

type finding = { f_line : int; f_col : int; f_code : D.code; f_message : string }

type rule = {
  r_code : D.code;
  r_name : string;
  r_exempt : string -> bool;
  r_check : Srcmod.t -> finding list;
}

(* Iterative substring search: no [String.sub] allocation per position and
   no recursion, so a pathological multi-megabyte line cannot blow the
   stack. *)
let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 || m > n then false
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= n - m do
      let j = ref 0 in
      while !j < m && s.[!i + !j] = sub.[!j] do
        incr j
      done;
      if !j = m then found := true else incr i
    done;
    !found
  end

(* ------------------------------------------------------------------ *)
(* Path scoping                                                         *)
(* ------------------------------------------------------------------ *)

let no_exemption _ = false

let has_segment name path = List.mem name (String.split_on_char '/' path)

let under_lib path = has_segment "lib" path

let under_serve path = under_lib path && has_segment "serve" path

let under_cost path = under_lib path && has_segment "cost" path

let in_parpool path = contains_sub path "parpool"

let in_telemetry path = contains_sub path "telemetry"

let in_output_sink path = in_telemetry path || contains_sub path "table_fmt"

(* ------------------------------------------------------------------ *)
(* Shared token helpers                                                 *)
(* ------------------------------------------------------------------ *)

let path_str p = String.concat "." p

let last_comp p =
  match List.rev p with [] -> "" | last :: _ -> last

let occ_end (occ : Srcmod.occurrence) =
  occ.Srcmod.o_index + (2 * (List.length occ.Srcmod.o_raw - 1))

let finding code occ msg =
  { f_line = occ.Srcmod.o_line; f_col = occ.Srcmod.o_col; f_code = code; f_message = msg }

let tok (sm : Srcmod.t) i =
  let toks = sm.Srcmod.sm_lex.Lexer.tokens in
  if i >= 0 && i < Array.length toks then Some toks.(i) else None

let tok_is (sm : Srcmod.t) i kind text =
  match tok sm i with
  | Some t -> t.Lexer.t_kind = kind && t.Lexer.t_text = text
  | None -> false

let occs_in (sm : Srcmod.t) a b =
  List.filter
    (fun (o : Srcmod.occurrence) -> o.Srcmod.o_index >= a && o.Srcmod.o_index <= b)
    sm.Srcmod.sm_occurrences

(* ------------------------------------------------------------------ *)
(* Forksafe family (SA040-SA044)                                        *)
(* ------------------------------------------------------------------ *)

(* Exact resolved-path needles, e.g. [["List"; "hd"]]. *)
let path_rule code ~name ~why ~exempt needles =
  {
    r_code = code;
    r_name = name;
    r_exempt = exempt;
    r_check =
      (fun sm ->
        List.filter_map
          (fun occ ->
            match List.find_opt (fun nd -> Srcmod.matches sm nd occ) needles with
            | Some nd -> Some (finding code occ (Printf.sprintf "%s (%s)" (path_str nd) why))
            | None -> None)
          sm.Srcmod.sm_occurrences);
  }

(* Match on the final path component: [print_endline] bare or behind any
   qualifier, mirroring the old preceding-boundary substring semantics. *)
let suffix_rule code ~name ~why ~exempt names =
  {
    r_code = code;
    r_name = name;
    r_exempt = exempt;
    r_check =
      (fun sm ->
        List.filter_map
          (fun (occ : Srcmod.occurrence) ->
            let last = last_comp occ.Srcmod.o_path in
            if List.mem last names then
              Some (finding code occ (Printf.sprintf "%s (%s)" last why))
            else None)
          sm.Srcmod.sm_occurrences);
  }

(* [f stdout] token pairs: [Printf.fprintf stdout], [output_string stdout]. *)
let stdout_pair_rule code ~name ~why ~exempt names =
  {
    r_code = code;
    r_name = name;
    r_exempt = exempt;
    r_check =
      (fun sm ->
        List.filter_map
          (fun (occ : Srcmod.occurrence) ->
            let last = last_comp occ.Srcmod.o_path in
            if List.mem last names && tok_is sm (occ_end occ + 1) Lexer.Lident "stdout" then
              Some (finding code occ (Printf.sprintf "%s stdout (%s)" last why))
            else None)
          sm.Srcmod.sm_occurrences);
  }

let mutable_creators =
  [
    [ "Hashtbl"; "create" ]; [ "Queue"; "create" ]; [ "Buffer"; "create" ];
    [ "Stack"; "create" ];
  ]

(* Parameterless toplevel bindings whose body *starts* with [ref] or a
   mutable-container creator: the state exists once per process image and
   silently diverges between forked workers. *)
let toplevel_mutable_rule ~exempt =
  let why = "mutable toplevel state diverges silently between forked workers" in
  {
    r_code = D.Toplevel_mutable;
    r_name = "toplevel-mutable";
    r_exempt = exempt;
    r_check =
      (fun sm ->
        List.filter_map
          (fun (b : Srcmod.binding) ->
            if b.Srcmod.b_params then None
            else
              let creator =
                if tok_is sm b.Srcmod.b_body_start Lexer.Lident "ref" then Some "ref"
                else
                  match occs_in sm b.Srcmod.b_body_start b.Srcmod.b_body_start with
                  | occ :: _
                    when List.exists (fun nd -> Srcmod.matches sm nd occ) mutable_creators ->
                    Some (path_str occ.Srcmod.o_path)
                  | _ -> None
              in
              match creator with
              | Some what ->
                Some
                  {
                    f_line = b.Srcmod.b_line;
                    f_col = 0;
                    f_code = D.Toplevel_mutable;
                    f_message = Printf.sprintf "let %s = %s (%s)" b.Srcmod.b_name what why;
                  }
              | None -> None)
          sm.Srcmod.sm_bindings);
  }

let marshal_rule ~exempt =
  {
    r_code = D.Marshal_outside_pool;
    r_name = "marshal-outside-pool";
    r_exempt = exempt;
    r_check =
      (fun sm ->
        List.filter_map
          (fun (occ : Srcmod.occurrence) ->
            match occ.Srcmod.o_path with
            | "Marshal" :: _ :: _ ->
              Some
                (finding D.Marshal_outside_pool occ
                   (Printf.sprintf "%s (Marshal outside the fork pool's framed protocol)"
                      (path_str occ.Srcmod.o_path)))
            | _ -> None)
          sm.Srcmod.sm_occurrences);
  }

(* [assert false] is a keyword pair, invisible to the occurrence view. *)
let assert_false_rule ~exempt =
  let why = "partial function / escape hatch in library code" in
  {
    r_code = D.Partial_function;
    r_name = "assert-false";
    r_exempt = exempt;
    r_check =
      (fun sm ->
        let toks = sm.Srcmod.sm_lex.Lexer.tokens in
        let out = ref [] in
        Array.iteri
          (fun i t ->
            if
              t.Lexer.t_kind = Lexer.Keyword
              && t.Lexer.t_text = "assert"
              && tok_is sm (i + 1) Lexer.Keyword "false"
            then
              out :=
                {
                  f_line = t.Lexer.t_line;
                  f_col = t.Lexer.t_col;
                  f_code = D.Partial_function;
                  f_message = Printf.sprintf "assert false (%s)" why;
                }
                :: !out)
          toks;
        List.rev !out);
  }

let forksafe_rules () =
  let partial_why = "partial function / escape hatch in library code" in
  let channel_why =
    "stdout/stderr write in library code (interleaves with the worker protocol)"
  in
  let stdout_why =
    "direct stdout write in library code (only telemetry/table_fmt may format to stdout)"
  in
  [
    path_rule D.Partial_function ~name:"partial-function" ~why:partial_why
      ~exempt:no_exemption
      [ [ "List"; "hd" ]; [ "List"; "tl" ]; [ "Option"; "get" ]; [ "Obj"; "magic" ] ];
    suffix_rule D.Partial_function ~name:"failwith" ~why:partial_why ~exempt:no_exemption
      [ "failwith" ];
    assert_false_rule ~exempt:no_exemption;
    marshal_rule ~exempt:in_parpool;
    path_rule D.Fork_outside_pool ~name:"fork-outside-pool"
      ~why:"fork outside the worker pool" ~exempt:in_parpool
      [ [ "Unix"; "fork" ] ];
    suffix_rule D.Shared_channel_write ~name:"shared-channel-write" ~why:channel_why
      ~exempt:no_exemption
      [
        "print_string"; "print_endline"; "print_newline"; "print_char"; "print_int";
        "print_float"; "prerr_string"; "prerr_endline"; "prerr_newline";
      ];
    path_rule D.Shared_channel_write ~name:"printf-channel" ~why:channel_why
      ~exempt:no_exemption
      [
        [ "Printf"; "printf" ]; [ "Printf"; "eprintf" ]; [ "Format"; "printf" ];
        [ "Format"; "eprintf" ];
      ];
    stdout_pair_rule D.Shared_channel_write ~name:"stdout-pair" ~why:stdout_why
      ~exempt:in_output_sink
      [ "fprintf"; "output_string"; "output_char" ];
    toplevel_mutable_rule ~exempt:in_telemetry;
  ]

(* ------------------------------------------------------------------ *)
(* SA060: blocking syscalls reachable from the serve event loop          *)
(* ------------------------------------------------------------------ *)

(* Calls that can park the whole process. The sanctioned loop primitives —
   [Unix.select] and reads/writes on fds the loop has set non-blocking —
   are deliberately absent. *)
let blocking_needles =
  [
    [ "Unix"; "sleep" ]; [ "Unix"; "sleepf" ]; [ "Unix"; "system" ]; [ "Unix"; "wait" ];
    [ "Unix"; "waitpid" ]; [ "Unix"; "connect" ]; [ "Unix"; "open_connection" ];
    [ "Unix"; "gethostbyname" ]; [ "Unix"; "gethostbyaddr" ]; [ "Unix"; "getaddrinfo" ];
    [ "Unix"; "getprotobyname" ]; [ "Unix"; "open_process_in" ];
    [ "Unix"; "open_process_out" ]; [ "Unix"; "open_process_full" ];
    [ "input_line" ]; [ "read_line" ]; [ "really_input" ]; [ "really_input_string" ];
    [ "input_value" ]; [ "In_channel"; "input_line" ]; [ "In_channel"; "input_all" ];
    [ "In_channel"; "input_lines" ];
  ]

(* SA060 now runs on the whole-program call graph — see
   [blocking_project_rule] below. The per-file rule record is gone; the
   project pass subsumes it (a single-file project degenerates to exactly
   the old intra-module analysis, chains and all). *)

(* ------------------------------------------------------------------ *)
(* SA061: fd discipline                                                 *)
(* ------------------------------------------------------------------ *)

let fd_creators =
  [
    [ "Unix"; "openfile" ]; [ "Unix"; "socket" ]; [ "Unix"; "accept" ]; [ "Unix"; "pipe" ];
    [ "Unix"; "socketpair" ];
  ]

(* Names bound by [let pat = Unix.<creator> ...]: walk back over the
   pattern. A comma-separated pattern binds every identifier; multiple
   identifiers without commas are a function head (the fd escapes to the
   caller, whose module owns the close). *)
let backward_bound_names sm (occ : Srcmod.occurrence) =
  if not (tok_is sm (occ.Srcmod.o_index - 1) Lexer.Symbol "=") then None
  else begin
    let names = ref [] in
    let saw_comma = ref false in
    let stop = ref false in
    let j = ref (occ.Srcmod.o_index - 2) in
    let steps = ref 0 in
    let hit_let = ref false in
    while (not !stop) && !steps < 16 && !j >= 0 do
      (match tok sm !j with
      | Some { Lexer.t_kind = Lexer.Keyword; t_text = "let" | "and"; _ } ->
        hit_let := true;
        stop := true
      | Some { Lexer.t_kind = Lexer.Keyword; t_text = "rec"; _ } -> ()
      | Some { Lexer.t_kind = Lexer.Lident; t_text; _ } when t_text <> "_" ->
        names := t_text :: !names
      | Some { Lexer.t_kind = Lexer.Symbol; t_text = ","; _ } -> saw_comma := true
      | Some { Lexer.t_kind = Lexer.Symbol; t_text = "(" | ")"; _ } -> ()
      | _ -> stop := true);
      decr j;
      incr steps
    done;
    if not !hit_let then None
    else
      match !names with
      | [] -> None
      | [ x ] -> Some [ x ]
      | xs -> if !saw_comma then Some xs else None
  end

(* Names bound by [match Unix.<creator> ... with | pat -> ...]: the first
   non-[exception] arm's pattern identifiers. *)
let match_bound_names sm (occ : Srcmod.occurrence) =
  if not (tok_is sm (occ.Srcmod.o_index - 1) Lexer.Keyword "match") then None
  else begin
    let limit = occ.Srcmod.o_index + 200 in
    let rec find_with j =
      if j > limit then None
      else
        match tok sm j with
        | None -> None
        | Some { Lexer.t_kind = Lexer.Keyword; t_text = "with"; _ } -> Some j
        | Some _ -> find_with (j + 1)
    in
    let rec next_bar j =
      if j > limit then None
      else
        match tok sm j with
        | None -> None
        | Some { Lexer.t_kind = Lexer.Symbol; t_text = "|"; _ } -> Some j
        | Some _ -> next_bar (j + 1)
    in
    let arm_names j =
      (* pattern tokens from [j] to the arm's [->] *)
      let names = ref [] in
      let k = ref j in
      let stop = ref false in
      while (not !stop) && !k <= limit do
        (match tok sm !k with
        | Some { Lexer.t_kind = Lexer.Symbol; t_text = "->"; _ } | None -> stop := true
        | Some { Lexer.t_kind = Lexer.Lident; t_text; _ } when t_text <> "_" ->
          names := t_text :: !names
        | Some _ -> ());
        incr k
      done;
      List.rev !names
    in
    let rec first_plain_arm j =
      if j > limit then None
      else
        match tok sm j with
        | None -> None
        | Some { Lexer.t_kind = Lexer.Keyword; t_text = "exception"; _ } -> (
          match next_bar j with Some bar -> first_plain_arm (bar + 1) | None -> None)
        | Some { Lexer.t_kind = Lexer.Symbol; t_text = "|"; _ } -> first_plain_arm (j + 1)
        | Some _ -> Some (arm_names j)
    in
    match find_with (occ_end occ) with
    | None -> None
    | Some w -> (
      match first_plain_arm (w + 1) with
      | Some (_ :: _ as names) -> Some names
      | _ -> None)
  end

(* Last path component of the argument to a [Unix.close] call: [fd],
   [conn.fd] and [w.to_worker] all release their final component. *)
let closed_names sm =
  List.concat_map
    (fun (occ : Srcmod.occurrence) ->
      if occ.Srcmod.o_path <> [ "Unix"; "close" ] then []
      else begin
        let j = occ_end occ + 1 in
        let j = if tok_is sm j Lexer.Symbol "(" then j + 1 else j in
        match
          List.find_opt (fun (o : Srcmod.occurrence) -> o.Srcmod.o_index = j)
            sm.Srcmod.sm_occurrences
        with
        | Some arg -> [ last_comp arg.Srcmod.o_raw ]
        | None -> []
      end)
    sm.Srcmod.sm_occurrences

(* Record fields assigned from a created name ([{ to_worker = job_w; ... }])
   release the name when the *field* reaches a close: ownership moved into
   the record, and the record's close path is what matters. *)
let field_aliases sm =
  let toks = sm.Srcmod.sm_lex.Lexer.tokens in
  let out = ref [] in
  Array.iteri
    (fun i t ->
      if
        t.Lexer.t_kind = Lexer.Lident
        && tok_is sm (i + 1) Lexer.Symbol "="
        && (match tok sm (i - 1) with
           | Some { Lexer.t_kind = Lexer.Symbol; t_text = "{" | ";"; _ } -> true
           | _ -> false)
      then
        match tok sm (i + 2) with
        | Some { Lexer.t_kind = Lexer.Lident; t_text; _ } ->
          out := (t.Lexer.t_text, t_text) :: !out
        | _ -> ())
    toks;
  !out

let fd_leak_rule ~exempt =
  {
    r_code = D.Fd_leak;
    r_name = "fd-leak";
    r_exempt = exempt;
    r_check =
      (fun sm ->
        let closed = closed_names sm in
        let aliases = field_aliases sm in
        let released name =
          List.mem name closed
          || List.exists (fun (field, src) -> src = name && List.mem field closed) aliases
        in
        List.concat_map
          (fun occ ->
            match List.find_opt (fun nd -> Srcmod.matches sm nd occ) fd_creators with
            | None -> []
            | Some nd ->
              let bound =
                match backward_bound_names sm occ with
                | Some names -> names
                | None -> ( match match_bound_names sm occ with Some names -> names | None -> [])
              in
              List.filter_map
                (fun name ->
                  if released name then None
                  else
                    Some
                      (finding D.Fd_leak occ
                         (Printf.sprintf
                            "%s result '%s' never reaches Unix.close in this module"
                            (path_str nd) name)))
                bound)
          sm.Srcmod.sm_occurrences);
  }

(* ------------------------------------------------------------------ *)
(* SA062: signal-handler safety                                         *)
(* ------------------------------------------------------------------ *)

(* Within a handler body, flag the first token that is more than flag
   bookkeeping: any qualified call outside [Atomic]/[Sys], a mutable-field
   write, or a string literal (formatting/allocation). *)
let handler_violation sm a b =
  let bad_occ =
    List.find_opt
      (fun (o : Srcmod.occurrence) ->
        match o.Srcmod.o_path with
        | head :: _ :: _ -> head <> "Atomic" && head <> "Sys"
        | _ -> false)
      (occs_in sm a b)
  in
  match bad_occ with
  | Some o -> Some (Printf.sprintf "calls %s" (path_str o.Srcmod.o_path))
  | None ->
    let toks = sm.Srcmod.sm_lex.Lexer.tokens in
    let bad = ref None in
    for i = a to min b (Array.length toks - 1) do
      if !bad = None then
        match toks.(i) with
        | { Lexer.t_kind = Lexer.Symbol; t_text = "<-"; _ } ->
          bad := Some "writes a mutable field"
        | { Lexer.t_kind = Lexer.String_lit; _ } ->
          bad := Some "allocates/formats a string"
        | _ -> ()
    done;
    !bad

(* The matching close paren of an opening paren at [start]. *)
let matching_paren sm start =
  let toks = sm.Srcmod.sm_lex.Lexer.tokens in
  let n = Array.length toks in
  let depth = ref 0 in
  let result = ref None in
  let i = ref start in
  while !result = None && !i < n do
    (match toks.(!i) with
    | { Lexer.t_kind = Lexer.Symbol; t_text = "("; _ } -> incr depth
    | { Lexer.t_kind = Lexer.Symbol; t_text = ")"; _ } ->
      decr depth;
      if !depth = 0 then result := Some !i
    | _ -> ());
    incr i
  done;
  !result

(* Resolve a named handler against toplevel bindings (nested locals are
   out of reach — those handlers are trusted rather than guessed at). *)
let resolve_handler sm name =
  match Srcmod.binding_named sm name with
  | None -> None
  | Some b -> handler_violation sm b.Srcmod.b_body_start b.Srcmod.b_body_end

let signal_rule ~exempt =
  {
    r_code = D.Signal_unsafe;
    r_name = "signal-handler-unsafe";
    r_exempt = exempt;
    r_check =
      (fun sm ->
        List.filter_map
          (fun (occ : Srcmod.occurrence) ->
            if occ.Srcmod.o_path <> [ "Sys"; "set_signal" ] then None
            else begin
              (* find a Signal_handle within the next few tokens; Signal_ignore
                 and Signal_default need no inspection *)
              let handle =
                List.find_opt
                  (fun (o : Srcmod.occurrence) ->
                    o.Srcmod.o_index > occ.Srcmod.o_index
                    && o.Srcmod.o_index <= occ.Srcmod.o_index + 12
                    && last_comp o.Srcmod.o_path = "Signal_handle")
                  sm.Srcmod.sm_occurrences
              in
              match handle with
              | None -> None
              | Some h -> (
                let start = occ_end h + 1 in
                let violation =
                  match tok sm start with
                  | Some { Lexer.t_kind = Lexer.Symbol; t_text = "("; _ } -> (
                    match matching_paren sm start with
                    | None -> None
                    | Some close -> (
                      (* (fun ... -> body) or (local_handler) *)
                      match tok sm (start + 1) with
                      | Some { Lexer.t_kind = Lexer.Keyword; t_text = "fun"; _ } ->
                        handler_violation sm (start + 1) (close - 1)
                      | Some { Lexer.t_kind = Lexer.Lident; t_text; _ } ->
                        resolve_handler sm t_text
                      | _ -> None))
                  | Some { Lexer.t_kind = Lexer.Lident; t_text; _ } ->
                    resolve_handler sm t_text
                  | _ -> None
                in
                match violation with
                | None -> None
                | Some why ->
                  Some
                    (finding D.Signal_unsafe occ
                       (Printf.sprintf
                          "signal handler does more than set a ref/Atomic flag (%s)" why)))
            end)
          sm.Srcmod.sm_occurrences);
  }

(* ------------------------------------------------------------------ *)
(* SA063: determinism hazards                                           *)
(* ------------------------------------------------------------------ *)

let hashtbl_order_rule ~exempt =
  path_rule D.Nondeterminism ~name:"hashtbl-order"
    ~why:
      "Hashtbl iteration order is seed-dependent; sort or use an ordered structure before \
       it feeds output"
    ~exempt
    [ [ "Hashtbl"; "iter" ]; [ "Hashtbl"; "fold" ] ]

let wallclock_rule ~exempt =
  path_rule D.Nondeterminism ~name:"wall-clock"
    ~why:"wall-clock time outside Stopwatch breaks replay determinism" ~exempt
    [ [ "Unix"; "gettimeofday" ]; [ "Sys"; "time" ] ]

let random_rule ~exempt =
  {
    r_code = D.Nondeterminism;
    r_name = "random-outside-rng";
    r_exempt = exempt;
    r_check =
      (fun sm ->
        List.filter_map
          (fun (occ : Srcmod.occurrence) ->
            match occ.Srcmod.o_path with
            | "Random" :: _ :: _ ->
              Some
                (finding D.Nondeterminism occ
                   (Printf.sprintf "%s (Random outside the seeded Rng module)"
                      (path_str occ.Srcmod.o_path)))
            | _ -> None)
          sm.Srcmod.sm_occurrences);
  }

(* ------------------------------------------------------------------ *)
(* SA064: silent exception swallowing                                   *)
(* ------------------------------------------------------------------ *)

type opener = Try | Match | Group

(* A [with] pairs with the nearest unclosed [try]/[match]; [with] at the
   top of a brace/paren group is a record-update or module-constraint
   [with] and pairs with nothing. Only [try ... with _ ->] (optionally
   [with | _ ->]) is the silent-swallow idiom. *)
let swallow_rule ~exempt =
  {
    r_code = D.Exception_swallowed;
    r_name = "exception-swallowed";
    r_exempt = exempt;
    r_check =
      (fun sm ->
        let toks = sm.Srcmod.sm_lex.Lexer.tokens in
        let n = Array.length toks in
        let stack = ref [] in
        let out = ref [] in
        let wildcard_after i =
          let j = if tok_is sm i Lexer.Symbol "|" then i + 1 else i in
          tok_is sm j Lexer.Lident "_" && tok_is sm (j + 1) Lexer.Symbol "->"
        in
        for i = 0 to n - 1 do
          let t = toks.(i) in
          match (t.Lexer.t_kind, t.Lexer.t_text) with
          | Lexer.Keyword, "try" -> stack := Try :: !stack
          | Lexer.Keyword, "match" -> stack := Match :: !stack
          | Lexer.Symbol, ("(" | "{" | "[") | Lexer.Keyword, "begin" ->
            stack := Group :: !stack
          | Lexer.Symbol, (")" | "}" | "]") | Lexer.Keyword, "end" -> (
            (* pop through any try/match left unpaired inside the group *)
            let rec pop () =
              match !stack with
              | Group :: rest -> stack := rest
              | (Try | Match) :: rest ->
                stack := rest;
                pop ()
              | [] -> ()
            in
            pop ())
          | Lexer.Keyword, "with" -> (
            match !stack with
            | Try :: rest ->
              stack := rest;
              if wildcard_after (i + 1) then
                out :=
                  {
                    f_line = t.Lexer.t_line;
                    f_col = t.Lexer.t_col;
                    f_code = D.Exception_swallowed;
                    f_message =
                      "try ... with _ -> silently discards the exception; match specific \
                       exceptions or log before dropping";
                  }
                  :: !out
            | Match :: rest -> stack := rest
            | _ -> () (* record-update / constraint [with] *))
          | _ -> ()
        done;
        List.rev !out);
  }

(* ------------------------------------------------------------------ *)
(* Project rules: whole-program passes over the cross-module call graph *)
(* ------------------------------------------------------------------ *)

type project_finding = { pf_file : int; pf_finding : finding }

type project_rule = { pr_name : string; pr_check : Srcmod.project -> project_finding list }

(* Occurrences of [file] that sit inside [b]'s body. *)
let body_occs (t : Srcmod.t) (b : Srcmod.binding) =
  List.filter
    (fun (o : Srcmod.occurrence) ->
      o.Srcmod.o_index >= b.Srcmod.b_body_start && o.Srcmod.o_index <= b.Srcmod.b_body_end)
    t.Srcmod.sm_occurrences

(* SA060 on the project graph: from every [serve] root, walk the
   cross-module reachable set (fixtures with a local [serve] binding work
   unchanged) and flag blocking needles inside any reached body. The fork
   pool is fenced off: its waitpid/worker plumbing runs on the parent side
   of a fork, never inside the select loop. *)
let blocking_project_rule =
  {
    pr_name = "blocking-in-event-loop";
    pr_check =
      (fun p ->
        let files = p.Srcmod.p_files in
        let out = ref [] in
        Array.iteri
          (fun fi (t : Srcmod.t) ->
            if (not (in_parpool t.Srcmod.sm_path)) && Srcmod.binding_named t "serve" <> None
            then
              List.iter
                (fun ((fj, b, chain) : int * Srcmod.binding * string list) ->
                  let tj = files.(fj) in
                  List.iter
                    (fun occ ->
                      match
                        List.find_opt (fun nd -> Srcmod.matches tj nd occ) blocking_needles
                      with
                      | None -> ()
                      | Some nd ->
                        out :=
                          {
                            pf_file = fj;
                            pf_finding =
                              finding D.Blocking_in_loop occ
                                (Printf.sprintf
                                   "%s blocks the single-threaded event loop (reachable via \
                                    %s)"
                                   (path_str nd)
                                   (String.concat " -> " chain));
                          }
                          :: !out)
                    (body_occs tj b))
                (Srcmod.project_reachable p ~file:fi "serve"
                   ~stop:(fun fj _ -> in_parpool files.(fj).Srcmod.sm_path)))
          files;
        List.rev !out);
  }

(* SA070-SA074: the hot-path passes. One combined pass so the annotation
   table, the allocation summaries and the SCC analysis are built once. *)
let hot_project_rule =
  {
    pr_name = "hot-path";
    pr_check =
      (fun p ->
        let files = p.Srcmod.p_files in
        let nf = Array.length files in
        let az = Allocsum.analyze p in
        let anns = Array.init nf (fun fi -> Allocsum.annotations files.(fi).Srcmod.sm_lex) in
        let binding_at fi line =
          List.find_opt
            (fun (b : Srcmod.binding) -> b.Srcmod.b_line = line)
            files.(fi).Srcmod.sm_bindings
        in
        let out = ref [] in
        let emit fi f = out := { pf_file = fi; pf_finding = f } :: !out in
        (* cold boundaries: reachability stops at these bindings *)
        let cold = Hashtbl.create 8 in
        for fi = 0 to nf - 1 do
          List.iter
            (fun (a : Allocsum.annotation) ->
              if a.Allocsum.an_kind = Allocsum.Cold then
                match binding_at fi a.Allocsum.an_target with
                | Some b -> Hashtbl.replace cold (fi, b.Srcmod.b_name) ()
                | None -> ())
            anns.(fi)
        done;
        (* SA073 / SA074: resolve and vet every hot annotation first *)
        let roots = ref [] in
        let seen_root = Hashtbl.create 8 in
        for fi = 0 to nf - 1 do
          List.iter
            (fun (a : Allocsum.annotation) ->
              match binding_at fi a.Allocsum.an_target with
              | None ->
                emit fi
                  {
                    f_line = a.Allocsum.an_line;
                    f_col = 0;
                    f_code = D.Hot_unresolved;
                    f_message =
                      Printf.sprintf
                        "(* sunstone-%s *) targets line %d but no toplevel binding starts \
                         there"
                        (match a.Allocsum.an_kind with Allocsum.Hot -> "hot" | _ -> "cold")
                        a.Allocsum.an_target;
                  }
              | Some b when a.Allocsum.an_kind = Allocsum.Hot ->
                if not b.Srcmod.b_params then
                  emit fi
                    {
                      f_line = a.Allocsum.an_line;
                      f_col = 0;
                      f_code = D.Hot_stale;
                      f_message =
                        Printf.sprintf
                          "(* sunstone-hot *) on '%s', a parameterless binding — hot roots \
                           must be functions"
                          b.Srcmod.b_name;
                    }
                else if Hashtbl.mem seen_root (fi, b.Srcmod.b_name) then
                  emit fi
                    {
                      f_line = a.Allocsum.an_line;
                      f_col = 0;
                      f_code = D.Hot_stale;
                      f_message =
                        Printf.sprintf "duplicate (* sunstone-hot *) on '%s'" b.Srcmod.b_name;
                    }
                else begin
                  Hashtbl.replace seen_root (fi, b.Srcmod.b_name) ();
                  roots := (fi, b.Srcmod.b_name) :: !roots
                end
              | Some _ -> ())
            anns.(fi)
        done;
        (* SA070 / SA071 / SA072 over the reachable set of each hot root *)
        let seen_site = Hashtbl.create 64 in
        let site_once fj code (s : Allocsum.site) k =
          let key = (fj, s.Allocsum.s_line, s.Allocsum.s_col, D.code_id code) in
          if not (Hashtbl.mem seen_site key) then begin
            Hashtbl.replace seen_site key ();
            k ()
          end
        in
        List.iter
          (fun (fi, root) ->
            let display = String.concat " -> " in
            List.iter
              (fun ((fj, b, chain) : int * Srcmod.binding * string list) ->
                let summary =
                  match Allocsum.node az fj b.Srcmod.b_name with
                  | Some nd -> nd.Allocsum.nd_summary
                  | None -> Allocsum.summarize files.(fj) b
                in
                List.iter
                  (fun (s : Allocsum.site) ->
                    site_once fj D.Hot_allocation s (fun () ->
                        emit fj
                          {
                            f_line = s.Allocsum.s_line;
                            f_col = s.Allocsum.s_col;
                            f_code = D.Hot_allocation;
                            f_message =
                              Printf.sprintf "%s allocates on the hot path (root %s, via %s)"
                                s.Allocsum.s_desc root (display chain);
                          }))
                  summary.Allocsum.alloc_sites;
                List.iter
                  (fun (s : Allocsum.site) ->
                    site_once fj D.Hot_io s (fun () ->
                        emit fj
                          {
                            f_line = s.Allocsum.s_line;
                            f_col = s.Allocsum.s_col;
                            f_code = D.Hot_io;
                            f_message =
                              Printf.sprintf
                                "%s does IO or raises broadly on the hot path (root %s, via \
                                 %s)"
                                s.Allocsum.s_desc root (display chain);
                          }))
                  summary.Allocsum.io_sites;
                List.iter
                  (fun (s : Allocsum.site) ->
                    site_once fj D.Hot_nontail s (fun () ->
                        emit fj
                          {
                            f_line = s.Allocsum.s_line;
                            f_col = s.Allocsum.s_col;
                            f_code = D.Hot_nontail;
                            f_message =
                              Printf.sprintf
                                "non-tail self-recursion in '%s' on the hot path (root %s, \
                                 via %s)"
                                b.Srcmod.b_name root (display chain);
                          }))
                  summary.Allocsum.nontail_sites)
              (Srcmod.project_reachable p ~file:fi root ~stop:(fun fj name ->
                   Hashtbl.mem cold (fj, name))))
          (List.rev !roots);
        List.rev !out);
  }

let project_rules () = [ blocking_project_rule; hot_project_rule ]

(* ------------------------------------------------------------------ *)
(* Rule sets                                                            *)
(* ------------------------------------------------------------------ *)

let daemon_rules () =
  [
    fd_leak_rule ~exempt:no_exemption;
    signal_rule ~exempt:no_exemption;
    (* lib/cost is in SA063's scope too: the model's and the probes'
       lookup tables must never be walked in iteration order either *)
    hashtbl_order_rule ~exempt:(fun p -> not (under_serve p || under_cost p));
    wallclock_rule ~exempt:(fun p ->
        (not (under_lib p)) || contains_sub p "stopwatch" || in_telemetry p);
    random_rule ~exempt:(fun p -> contains_sub p "rng");
    swallow_rule ~exempt:(fun p -> not (under_lib p));
  ]

let scope_to_lib r =
  { r with r_exempt = (fun p -> (not (under_lib p)) || r.r_exempt p) }

let default_rules () = List.map scope_to_lib (forksafe_rules ()) @ daemon_rules ()

let unscoped rules = List.map (fun r -> { r with r_exempt = no_exemption }) rules
