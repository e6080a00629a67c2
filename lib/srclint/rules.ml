module D = Sun_analysis.Diagnostic

type finding = { f_line : int; f_col : int; f_code : D.code; f_message : string }

let finding code (occ : Srcmod.occurrence) msg =
  { f_line = occ.Srcmod.o_line; f_col = occ.Srcmod.o_col; f_code = code; f_message = msg }

let tok_is (sm : Srcmod.t) i kind text =
  let toks = sm.Srcmod.sm_lex.Lexer.tokens in
  i >= 0
  && i < Array.length toks
  && toks.(i).Lexer.t_kind = kind
  && toks.(i).Lexer.t_text = text

(* ------------------------------------------------------------------ *)
(* SA044: partial functions and escape hatches                          *)
(* ------------------------------------------------------------------ *)

let partial_why = "partial function / escape hatch in library code"

let partial_needles =
  [ [ "List"; "hd" ]; [ "List"; "tl" ]; [ "Option"; "get" ]; [ "Obj"; "magic" ] ]

(* Resolved-path needles, then [failwith] bare or behind any qualifier,
   then the keyword pair [assert false], which no occurrence covers. *)
let partial_functions (sm : Srcmod.t) =
  let occs = sm.Srcmod.sm_occurrences in
  let needle_hits =
    List.filter_map
      (fun occ ->
        match List.find_opt (fun nd -> Srcmod.matches sm nd occ) partial_needles with
        | Some nd ->
          Some
            (finding D.Partial_function occ
               (Printf.sprintf "%s (%s)" (String.concat "." nd) partial_why))
        | None -> None)
      occs
  in
  let failwith_hits =
    List.filter_map
      (fun (occ : Srcmod.occurrence) ->
        match List.rev occ.Srcmod.o_path with
        | "failwith" :: _ ->
          Some (finding D.Partial_function occ (Printf.sprintf "failwith (%s)" partial_why))
        | _ -> None)
      occs
  in
  let assert_hits = ref [] in
  Array.iteri
    (fun i t ->
      if
        t.Lexer.t_kind = Lexer.Keyword
        && t.Lexer.t_text = "assert"
        && tok_is sm (i + 1) Lexer.Keyword "false"
      then
        assert_hits :=
          {
            f_line = t.Lexer.t_line;
            f_col = t.Lexer.t_col;
            f_code = D.Partial_function;
            f_message = Printf.sprintf "assert false (%s)" partial_why;
          }
          :: !assert_hits)
    sm.Srcmod.sm_lex.Lexer.tokens;
  needle_hits @ failwith_hits @ List.rev !assert_hits

(* ------------------------------------------------------------------ *)
(* SA064: silent exception swallowing                                   *)
(* ------------------------------------------------------------------ *)

type opener = Try | Match | Group

(* A [with] pairs with the nearest unclosed [try]/[match]; [with] at the
   top of a brace/paren group is a record-update or module-constraint
   [with] and pairs with nothing. Only [try ... with _ ->] (optionally
   [with | _ ->]) is the silent-swallow idiom. *)
let swallowed_exceptions (sm : Srcmod.t) =
  let toks = sm.Srcmod.sm_lex.Lexer.tokens in
  let stack = ref [] in
  let out = ref [] in
  let wildcard_after i =
    let j = if tok_is sm i Lexer.Symbol "|" then i + 1 else i in
    tok_is sm j Lexer.Lident "_" && tok_is sm (j + 1) Lexer.Symbol "->"
  in
  Array.iteri
    (fun i t ->
      match (t.Lexer.t_kind, t.Lexer.t_text) with
      | Lexer.Keyword, "try" -> stack := Try :: !stack
      | Lexer.Keyword, "match" -> stack := Match :: !stack
      | Lexer.Symbol, ("(" | "{" | "[") | Lexer.Keyword, "begin" -> stack := Group :: !stack
      | Lexer.Symbol, (")" | "}" | "]") | Lexer.Keyword, "end" ->
        (* pop through any try/match left unpaired inside the group *)
        let rec pop () =
          match !stack with
          | Group :: rest -> stack := rest
          | (Try | Match) :: rest ->
            stack := rest;
            pop ()
          | [] -> ()
        in
        pop ()
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
      | _ -> ())
    toks;
  List.rev !out

let check_file sm = partial_functions sm @ swallowed_exceptions sm

(* ------------------------------------------------------------------ *)
(* SA070, SA073, SA074: the hot-path pass over the project call graph   *)
(* ------------------------------------------------------------------ *)

type project_finding = { pf_file : int; pf_finding : finding }

let check_project (p : Srcmod.project) =
  let files = p.Srcmod.p_files in
  let nf = Array.length files in
  let anns = Array.init nf (fun fi -> Allocsum.annotations files.(fi).Srcmod.sm_lex) in
  let binding_at fi line =
    List.find_opt (fun (b : Srcmod.binding) -> b.Srcmod.b_line = line) files.(fi).Srcmod.sm_bindings
  in
  let out = ref [] in
  let emit fi ?(col = 0) line code message =
    let f = { f_line = line; f_col = col; f_code = code; f_message = message } in
    out := { pf_file = fi; pf_finding = f } :: !out
  in
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
  (* SA073 / SA074: resolve and vet every annotation first *)
  let roots = ref [] in
  for fi = 0 to nf - 1 do
    List.iter
      (fun (a : Allocsum.annotation) ->
        let line = a.Allocsum.an_line in
        match binding_at fi a.Allocsum.an_target with
        | None ->
          emit fi line D.Hot_unresolved
            (Printf.sprintf
               "(* sunstone-%s *) targets line %d but no toplevel binding starts there"
               (match a.Allocsum.an_kind with Allocsum.Hot -> "hot" | Allocsum.Cold -> "cold")
               a.Allocsum.an_target)
        | Some b when a.Allocsum.an_kind = Allocsum.Hot ->
          let name = b.Srcmod.b_name in
          if not b.Srcmod.b_params then
            emit fi line D.Hot_stale
              (Printf.sprintf
                 "(* sunstone-hot *) on '%s', a parameterless binding — hot roots must be \
                  functions"
                 name)
          else if List.mem (fi, name) !roots then
            emit fi line D.Hot_stale (Printf.sprintf "duplicate (* sunstone-hot *) on '%s'" name)
          else roots := (fi, name) :: !roots
        | Some _ -> ())
      anns.(fi)
  done;
  (* SA070 over the reachable set of each hot root, each site once *)
  let seen_site = Hashtbl.create 64 in
  List.iter
    (fun (fi, root) ->
      List.iter
        (fun ((fj, b, chain) : int * Srcmod.binding * string list) ->
          List.iter
            (fun (s : Allocsum.site) ->
              let key = (fj, s.Allocsum.s_line, s.Allocsum.s_col) in
              if not (Hashtbl.mem seen_site key) then begin
                Hashtbl.replace seen_site key ();
                emit fj ~col:s.Allocsum.s_col s.Allocsum.s_line D.Hot_allocation
                  (Printf.sprintf "%s allocates on the hot path (root %s, via %s)"
                     s.Allocsum.s_desc root (String.concat " -> " chain))
              end)
            (Allocsum.summarize files.(fj) b))
        (Srcmod.project_reachable p ~file:fi root ~stop:(fun fj name ->
             Hashtbl.mem cold (fj, name))))
    (List.rev !roots);
  List.rev !out
