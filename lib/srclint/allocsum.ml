(* Per-function allocation sites over the lexer token stream for the SA070
   hot-path pass: [summarize] finds the allocation-shaped tokens inside one
   toplevel binding's body, and [annotations] reads the (* sunstone-hot *)
   / (* sunstone-cold *) markers.

   Like the rest of the engine this is a token-level approximation, written
   to err toward silence on idiomatic code: brackets and commas are
   classified pattern-vs-expression by a bounded backward walk, attribute
   brackets and empty lists are skipped, and anything the walk cannot decide
   is treated as a pattern. The runtime Gc oracle in test/test_model_hot.ml
   is the ground truth the approximation is pinned to. *)

module L = Lexer
module M = Srcmod

type site = { s_line : int; s_col : int; s_desc : string }

type ann_kind = Hot | Cold

type annotation = { an_kind : ann_kind; an_line : int; an_target : int }

let annotations (lx : L.t) =
  List.filter_map
    (fun (c : L.comment) ->
      match String.trim c.L.c_text with
      | "sunstone-hot" ->
        Some { an_kind = Hot; an_line = c.L.c_line; an_target = Suppress.target_line lx c }
      | "sunstone-cold" ->
        Some { an_kind = Cold; an_line = c.L.c_line; an_target = Suppress.target_line lx c }
      | _ -> None)
    lx.L.comments

(* ------------------------------------------------------------------ *)
(* Token classification                                                 *)
(* ------------------------------------------------------------------ *)

let is_sym (t : L.token) s = t.L.t_kind = L.Symbol && t.L.t_text = s

let pattern_keywords = [ "with"; "fun"; "function"; "let"; "and"; "exception"; "as" ]

(* Is the token at [i] in expression position (so [\[], [{], [::], [,]
   allocate) rather than pattern position? Bounded backward walk: skip
   identifiers, literals and balanced bracket groups; a match-arm [|] or a
   binder keyword decides pattern, any operator or other keyword decides
   expression. Walking past the body start without a verdict means the
   token opens the binding's outermost expression ([let f x = (a, b)]),
   which is expression position; only a budget-exhausted walk errs toward
   pattern (silence). *)
let in_expr_position (toks : L.token array) lo i =
  let budget = ref 64 in
  let j = ref (i - 1) in
  let depth = ref 0 in
  let verdict = ref 0 in
  (* 0 undecided, 1 expression, -1 pattern *)
  while !verdict = 0 && !j >= lo && !budget > 0 do
    decr budget;
    let t = toks.(!j) in
    (match t.L.t_kind with
    | L.Symbol -> (
      match t.L.t_text with
      | ")" | "]" | "}" -> incr depth
      | "(" | "[" | "{" -> if !depth > 0 then decr depth
      | _ when !depth > 0 -> ()
      | "|" -> verdict := -1
      | "." | "," -> ()
      | _ -> verdict := 1)
    | L.Keyword when !depth = 0 ->
      if List.mem t.L.t_text pattern_keywords then verdict := -1 else verdict := 1
    | _ -> ());
    decr j
  done;
  !verdict = 1 || (!verdict = 0 && !j < lo)

(* Allocation-shaped stdlib calls, [Module.func] form. The probe and heap
   hot paths earn inline allows where they genuinely need one of these. *)
let qualified_alloc m f =
  match m with
  | "Array" ->
    List.mem f
      [
        "make"; "init"; "copy"; "append"; "sub"; "of_list"; "to_list"; "map"; "mapi";
        "concat"; "of_seq"; "to_seq"; "make_matrix"; "split"; "combine";
      ]
  | "List" ->
    List.mem f
      [
        "init"; "map"; "mapi"; "map2"; "append"; "concat"; "concat_map"; "flatten"; "rev";
        "rev_append"; "rev_map"; "filter"; "filter_map"; "partition"; "sort"; "sort_uniq";
        "stable_sort"; "fast_sort"; "merge"; "split"; "combine"; "of_seq"; "to_seq"; "cons";
      ]
  | "String" ->
    List.mem f
      [
        "make"; "init"; "sub"; "concat"; "cat"; "map"; "mapi"; "trim"; "escaped";
        "split_on_char"; "lowercase_ascii"; "uppercase_ascii"; "capitalize_ascii";
        "uncapitalize_ascii"; "of_seq";
      ]
  | "Bytes" ->
    List.mem f
      [ "make"; "create"; "init"; "sub"; "copy"; "extend"; "cat"; "of_string"; "to_string" ]
  | "Buffer" -> List.mem f [ "create"; "contents"; "to_bytes"; "sub" ]
  | "Hashtbl" -> List.mem f [ "create"; "copy"; "add"; "replace"; "find_opt"; "of_seq"; "fold" ]
  | "Queue" -> List.mem f [ "create"; "add"; "push"; "copy"; "of_seq" ]
  | "Stack" -> List.mem f [ "create"; "push"; "copy"; "of_seq" ]
  | "Printf" -> List.mem f [ "sprintf"; "ksprintf" ]
  | "Format" -> List.mem f [ "sprintf"; "asprintf"; "ksprintf" ]
  | "Option" -> List.mem f [ "map"; "bind"; "some"; "join"; "to_list" ]
  | "Float" -> List.mem f [ "to_string" ]
  | "Int" -> List.mem f [ "to_string" ]
  | "Filename" -> List.mem f [ "concat"; "basename"; "dirname"; "remove_extension"; "quote" ]
  | "Marshal" -> List.mem f [ "to_string"; "to_bytes"; "from_string"; "from_bytes" ]
  | _ -> false

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let adjacent (a : L.token) (b : L.token) = a.L.t_end = b.L.t_start

(* ------------------------------------------------------------------ *)
(* Direct summary of one binding body                                   *)
(* ------------------------------------------------------------------ *)

let summarize (t : M.t) (b : M.binding) =
  let toks = t.M.sm_lex.L.tokens in
  let n = Array.length toks in
  let lo = b.M.b_body_start and hi = min b.M.b_body_end (n - 1) in
  let allocs = ref [] in
  let alloc i desc =
    allocs := { s_line = toks.(i).L.t_line; s_col = toks.(i).L.t_col; s_desc = desc } :: !allocs
  in
  let prev_is_dot i = i > 0 && is_sym toks.(i - 1) "." in
  (* skip a balanced bracket group starting at an opener index; returns the
     index just past the matching closer (or [n] when unterminated) *)
  let skip_balanced j0 =
    let depth = ref 0 in
    let j = ref j0 in
    let continue = ref true in
    while !continue && !j < n do
      (match toks.(!j).L.t_text with
      | "(" | "[" | "{" -> incr depth
      | ")" | "]" | "}" -> decr depth
      | _ -> ());
      incr j;
      if !depth <= 0 then continue := false
    done;
    !j
  in
  let i = ref lo in
  while !i <= hi do
    let t' = toks.(!i) in
    (match t'.L.t_kind with
    | L.Keyword -> (
      match t'.L.t_text with
      | ("fun" | "function") when !i > lo -> alloc !i ("closure (" ^ t'.L.t_text ^ ")")
      | "lazy" -> alloc !i "lazy block"
      | _ -> ())
    | L.Lident when not (prev_is_dot !i) -> (
      match t'.L.t_text with
      | "ref" -> alloc !i "ref cell"
      | "invalid_arg" -> alloc !i "invalid_arg payload"
      | "sprintf" -> alloc !i "sprintf"
      | "raise" ->
        if !i + 1 <= hi && is_sym toks.(!i + 1) "(" then alloc !i "raise with payload"
      | x -> if has_prefix ~prefix:"string_of_" x then alloc !i x)
    | L.Uident
      when !i + 2 < n
           && is_sym toks.(!i + 1) "."
           && toks.(!i + 2).L.t_kind = L.Lident
           && not (prev_is_dot !i) ->
      let m = t'.L.t_text and f = toks.(!i + 2).L.t_text in
      if qualified_alloc m f then alloc !i (m ^ "." ^ f)
    | L.Symbol -> (
      match t'.L.t_text with
      | "@" ->
        if not (!i > lo && is_sym toks.(!i - 1) "[" && adjacent toks.(!i - 1) t') then
          alloc !i "list append (@)"
      | "^" -> alloc !i "string append (^)"
      | "::" -> if in_expr_position toks lo !i then alloc !i "list cons (::)"
      | "," -> if in_expr_position toks lo !i then alloc !i "tuple"
      | "{" -> if in_expr_position toks lo !i then alloc !i "record literal"
      | "[" ->
        if !i + 1 <= hi then begin
          let nx = toks.(!i + 1) in
          if is_sym nx "]" || prev_is_dot !i then ()
          else if (is_sym nx "@" || is_sym nx "%") && adjacent t' nx then
            (* attribute or extension node: skip its whole payload *)
            i := skip_balanced !i - 1
          else if is_sym nx "|" && adjacent t' nx then begin
            if in_expr_position toks lo !i then alloc !i "array literal"
          end
          else if in_expr_position toks lo !i then alloc !i "list literal"
        end
      | _ -> ())
    | _ -> ());
    incr i
  done;
  List.rev !allocs
