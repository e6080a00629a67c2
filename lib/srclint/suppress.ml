module D = Sun_analysis.Diagnostic

type suppression = {
  s_code : string;
  s_reason : string;
  s_line : int;
  s_target : int;
  mutable s_used : bool;
}

let drop_prefix ~prefix s =
  let lp = String.length prefix in
  if String.length s >= lp && String.sub s 0 lp = prefix then
    Some (String.sub s lp (String.length s - lp))
  else None

(* "SA044 reason..." -> (code, reason); None when no reason is given. *)
let split_code_reason s =
  match String.index_opt s ' ' with
  | None -> None
  | Some sp ->
    let code = String.sub s 0 sp in
    let reason = String.trim (String.sub s sp (String.length s - sp)) in
    if code = "" || reason = "" then None else Some (code, reason)

let parse_comment (c : Lexer.comment) =
  match drop_prefix ~prefix:"sunstone-lint:" (String.trim c.Lexer.c_text) with
  | None -> None
  | Some rest -> (
    match drop_prefix ~prefix:"allow " (String.trim rest) with
    | None -> None
    | Some spec -> (
      match split_code_reason (String.trim spec) with
      | None -> None
      | Some (code, reason) -> Some (code, reason)))

(* A comment sharing its line with preceding code targets its own line;
   a comment alone on its line targets the next token-carrying line. *)
let target_line (lx : Lexer.t) (c : Lexer.comment) =
  let toks = lx.Lexer.tokens in
  let on_own_line =
    Array.exists
      (fun t -> t.Lexer.t_line = c.Lexer.c_line && t.Lexer.t_col < c.Lexer.c_col)
      toks
  in
  if on_own_line then c.Lexer.c_line
  else
    Array.fold_left
      (fun best t ->
        if t.Lexer.t_line > c.Lexer.c_line && (best = 0 || t.Lexer.t_line < best) then
          t.Lexer.t_line
        else best)
      0 toks
    |> fun next -> if next = 0 then c.Lexer.c_line else next

let collect lx =
  List.filter_map
    (fun c ->
      match parse_comment c with
      | None -> None
      | Some (code, reason) ->
        Some
          {
            s_code = code;
            s_reason = reason;
            s_line = c.Lexer.c_line;
            s_target = target_line lx c;
            s_used = false;
          })
    lx.Lexer.comments

let suppresses sups ~code ~line =
  let matching = List.filter (fun s -> s.s_code = code && s.s_target = line) sups in
  List.iter (fun s -> s.s_used <- true) matching;
  matching <> []

let stale ~path sups =
  List.filter_map
    (fun s ->
      if s.s_used then None
      else
        Some
          (D.warning D.Stale_suppression
             (Printf.sprintf "%s:%d: suppression 'allow %s' matches no diagnostic (%s)" path
                s.s_line s.s_code s.s_reason)))
    sups
