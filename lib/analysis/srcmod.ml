type occurrence = {
  o_index : int;
  o_line : int;
  o_col : int;
  o_path : string list;
  o_raw : string list;
  o_bare : bool;
}

type binding = {
  b_name : string;
  b_line : int;
  b_params : bool;
  b_body_start : int;
  b_body_end : int;
}

type t = {
  sm_path : string;
  sm_lines : string array;
  sm_lex : Lexer.t;
  sm_opens : string list list;
  sm_aliases : (string * string list) list;
  sm_bindings : binding list;
  sm_occurrences : occurrence list;
}

let split_lines src = Array.of_list (String.split_on_char '\n' src)

(* Keywords that start a new toplevel structure item at column 0; a
   binding's body extends to the token just before the next one. *)
let item_starter text =
  match text with
  | "let" | "and" | "type" | "module" | "open" | "exception" | "include" | "external"
  | "class" ->
    true
  | _ -> false

let is_dot (tok : Lexer.token) = tok.t_kind = Lexer.Symbol && tok.t_text = "."

let is_ident (tok : Lexer.token) =
  match tok.t_kind with Lexer.Lident | Lexer.Uident -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Occurrences                                                          *)
(* ------------------------------------------------------------------ *)

let resolve_path aliases raw =
  let rec apply guard path =
    if guard = 0 then path
    else
      match path with
      | head :: rest -> (
        match List.assoc_opt head aliases with
        | Some expansion when expansion <> [ head ] -> apply (guard - 1) (expansion @ rest)
        | _ -> path)
      | [] -> path
  in
  match apply 5 raw with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | path -> path

let collect_occurrences aliases (lx : Lexer.t) =
  let toks = lx.Lexer.tokens in
  let n = Array.length toks in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let tok = toks.(!i) in
    if is_ident tok && not (!i > 0 && is_dot toks.(!i - 1)) then begin
      let comps = ref [ tok.Lexer.t_text ] in
      let k = ref !i in
      while !k + 2 < n && is_dot toks.(!k + 1) && is_ident toks.(!k + 2) do
        comps := toks.(!k + 2).Lexer.t_text :: !comps;
        k := !k + 2
      done;
      let raw = List.rev !comps in
      let bare = List.length raw = 1 && tok.Lexer.t_kind = Lexer.Lident in
      out :=
        {
          o_index = !i;
          o_line = tok.Lexer.t_line;
          o_col = tok.Lexer.t_col;
          o_path = resolve_path aliases raw;
          o_raw = raw;
          o_bare = bare;
        }
        :: !out;
      i := !k + 1
    end
    else incr i
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Toplevel structure                                                   *)
(* ------------------------------------------------------------------ *)

let uident_path toks n j =
  let comps = ref [] in
  let k = ref j in
  if !k < n && toks.(!k).Lexer.t_kind = Lexer.Uident then begin
    comps := [ toks.(!k).Lexer.t_text ];
    while !k + 2 < n && is_dot toks.(!k + 1) && toks.(!k + 2).Lexer.t_kind = Lexer.Uident do
      comps := toks.(!k + 2).Lexer.t_text :: !comps;
      k := !k + 2
    done
  end;
  List.rev !comps

let bracket_delta (tok : Lexer.token) =
  if tok.t_kind <> Lexer.Symbol then 0
  else
    match tok.t_text with
    | "(" | "[" | "{" | "[|" -> 1
    | ")" | "]" | "}" | "|]" -> -1
    | _ -> 0

let parse_structure (lx : Lexer.t) =
  let toks = lx.Lexer.tokens in
  let n = Array.length toks in
  let opens = ref [] in
  let aliases = ref [] in
  let bindings = ref [] in
  let next_item_start from =
    let j = ref from in
    let found = ref n in
    while !found = n && !j < n do
      let tok = toks.(!j) in
      if tok.Lexer.t_col = 0 && tok.Lexer.t_kind = Lexer.Keyword && item_starter tok.Lexer.t_text
      then found := !j
      else incr j
    done;
    !found
  in
  let i = ref 0 in
  while !i < n do
    let tok = toks.(!i) in
    if tok.Lexer.t_col = 0 && tok.Lexer.t_kind = Lexer.Keyword then begin
      match tok.Lexer.t_text with
      | "open" ->
        (match uident_path toks n (!i + 1) with [] -> () | path -> opens := path :: !opens);
        incr i
      | "module" ->
        (* [module X = Path] (alias form only; [= struct] defines no alias) *)
        (if
           !i + 2 < n
           && toks.(!i + 1).Lexer.t_kind = Lexer.Uident
           && toks.(!i + 2).Lexer.t_kind = Lexer.Symbol
           && toks.(!i + 2).Lexer.t_text = "="
         then
           match uident_path toks n (!i + 3) with
           | [] -> ()
           | path -> aliases := (toks.(!i + 1).Lexer.t_text, path) :: !aliases);
        incr i
      | "let" | "and" ->
        let start = !i in
        let j = ref (!i + 1) in
        if !j < n && toks.(!j).Lexer.t_kind = Lexer.Keyword && toks.(!j).Lexer.t_text = "rec"
        then incr j;
        let pat_start = !j in
        (* find the binding-level [=] at bracket depth 0 *)
        let depth = ref 0 in
        let eq = ref n in
        let limit = next_item_start (start + 1) in
        while !eq = n && !j < limit do
          let t' = toks.(!j) in
          depth := !depth + bracket_delta t';
          if !depth = 0 && t'.Lexer.t_kind = Lexer.Symbol && t'.Lexer.t_text = "=" then
            eq := !j
          else incr j
        done;
        if !eq < n then begin
          let name =
            let rec first_lident k =
              if k >= !eq then "_"
              else if toks.(k).Lexer.t_kind = Lexer.Lident then toks.(k).Lexer.t_text
              else first_lident (k + 1)
            in
            first_lident pat_start
          in
          let params =
            (* tokens between the name slot and [=] beyond a bare name mean
               parameters; a leading [:] is a type annotation, not a param *)
            !eq > pat_start + 1
            &&
            match toks.(pat_start + 1) with
            | { Lexer.t_kind = Lexer.Symbol; t_text = ":"; _ } -> false
            | _ -> true
          in
          bindings :=
            {
              b_name = name;
              b_line = tok.Lexer.t_line;
              b_params = params;
              b_body_start = !eq + 1;
              b_body_end = limit - 1;
            }
            :: !bindings
        end;
        i := limit
      | _ -> incr i
    end
    else incr i
  done;
  (List.rev !opens, List.rev !aliases, List.rev !bindings)

let of_source ~path src =
  let lx = Lexer.lex src in
  let opens, aliases, bindings = parse_structure lx in
  {
    sm_path = path;
    sm_lines = split_lines src;
    sm_lex = lx;
    sm_opens = opens;
    sm_aliases = aliases;
    sm_bindings = bindings;
    sm_occurrences = collect_occurrences aliases lx;
  }

(* ------------------------------------------------------------------ *)
(* Queries                                                              *)
(* ------------------------------------------------------------------ *)

let line_text t ln =
  if ln >= 1 && ln <= Array.length t.sm_lines then String.trim t.sm_lines.(ln - 1) else ""

let binding_named t name = List.find_opt (fun b -> b.b_name = name) t.sm_bindings

let matches t needle occ =
  occ.o_path = needle
  ||
  match needle with
  | [ m; x ] ->
    occ.o_bare && occ.o_path = [ x ]
    && List.exists (function h :: _ -> h = m | [] -> false) t.sm_opens
    && binding_named t x = None
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Whole-program call graph                                             *)
(* ------------------------------------------------------------------ *)

type project = {
  p_files : t array;
  p_dirs : string array;
  p_modules : string array;
  p_index : (string * string, int) Hashtbl.t;
  p_lib_dirs : (string, string) Hashtbl.t;
}

let file_module path = String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* First [(name x)] in a dune file; capitalized it is the library prefix
   under which wrapped modules appear ([lib/cost/dune]'s [sun_cost] makes
   [Sun_cost.Model.f] resolve to [lib/cost/model.ml]'s [f]). Executable
   stanzas yield a harmless never-referenced prefix. *)
let dune_lib_prefix dir =
  let dune = Filename.concat dir "dune" in
  if not (Sys.file_exists dune) then None
  else begin
    let ic = open_in_bin dune in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    let n = String.length src in
    let needle = "(name" in
    let rec find i =
      if i + String.length needle > n then None
      else if String.sub src i (String.length needle) = needle then Some (i + String.length needle)
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some j ->
      let j = ref j in
      while !j < n && (src.[!j] = ' ' || src.[!j] = '\t' || src.[!j] = '\n') do incr j done;
      let k = ref !j in
      while
        !k < n
        && (match src.[!k] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
      do
        incr k
      done;
      if !k = !j then None else Some (String.capitalize_ascii (String.sub src !j (!k - !j)))
  end

let project_of_files files =
  let p_files = Array.of_list files in
  let nf = Array.length p_files in
  let p_dirs = Array.map (fun t -> Filename.dirname t.sm_path) p_files in
  let p_modules = Array.map (fun t -> file_module t.sm_path) p_files in
  let p_index = Hashtbl.create (2 * nf) in
  for i = nf - 1 downto 0 do
    Hashtbl.replace p_index (p_dirs.(i), p_modules.(i)) i
  done;
  let p_lib_dirs = Hashtbl.create 16 in
  let seen_dirs = Hashtbl.create 16 in
  Array.iter
    (fun dir ->
      if not (Hashtbl.mem seen_dirs dir) then begin
        Hashtbl.replace seen_dirs dir ();
        match dune_lib_prefix dir with
        | Some prefix when not (Hashtbl.mem p_lib_dirs prefix) ->
          Hashtbl.replace p_lib_dirs prefix dir
        | _ -> ()
      end)
    p_dirs;
  { p_files; p_dirs; p_modules; p_index; p_lib_dirs }

(* Resolve a fully-resolved occurrence path seen in file [fi] to a toplevel
   binding somewhere in the project. [M.x] is a same-directory module (the
   only modules visible unqualified inside a wrapped library), [Lib.M.x]
   goes through the dune library-prefix map. Deeper paths are submodule
   accesses whose bindings are not toplevel items — skipped, erring toward
   silence exactly like the per-file approximation. *)
let resolve_components p fi path =
  match path with
  | [ m; x ] -> (
    match Hashtbl.find_opt p.p_index (p.p_dirs.(fi), m) with
    | Some fj -> (
      match binding_named p.p_files.(fj) x with Some b -> Some (fj, b) | None -> None)
    | None -> None)
  | [ l; m; x ] -> (
    match Hashtbl.find_opt p.p_lib_dirs l with
    | Some dir -> (
      match Hashtbl.find_opt p.p_index (dir, m) with
      | Some fj -> (
        match binding_named p.p_files.(fj) x with Some b -> Some (fj, b) | None -> None)
      | None -> None)
    | None -> None)
  | _ -> None

let resolve_call p fi occ =
  let t = p.p_files.(fi) in
  let rec via_opens = function
    | [] -> None
    | o :: rest -> (
      match resolve_components p fi (o @ occ.o_path) with
      | Some r -> Some r
      | None -> via_opens rest)
  in
  match occ.o_path with
  | [ x ] when occ.o_bare -> (
    match binding_named t x with
    | Some b -> Some (fi, b)
    | None -> via_opens t.sm_opens)
  | [ _ ] -> None
  | path -> (
    match resolve_components p fi path with Some r -> Some r | None -> via_opens t.sm_opens)

let callees p fi (b : binding) =
  let t = p.p_files.(fi) in
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun occ ->
      if occ.o_index >= b.b_body_start && occ.o_index <= b.b_body_end then
        match resolve_call p fi occ with
        | Some (fj, bj) ->
          if Hashtbl.mem seen (fj, bj.b_name) then None
          else begin
            Hashtbl.replace seen (fj, bj.b_name) ();
            Some (fj, bj)
          end
        | None -> None
      else None)
    t.sm_occurrences

let display_name p ~root_file fj name =
  if fj = root_file then name else p.p_modules.(fj) ^ "." ^ name

let project_reachable ?(stop = fun _ _ -> false) p ~file root =
  match binding_named p.p_files.(file) root with
  | None -> []
  | Some b0 ->
    if stop file root then []
    else begin
      let visited = Hashtbl.create 32 in
      let order = ref [] in
      let queue = Queue.create () in
      Queue.add (file, b0, [ root ]) queue;
      Hashtbl.replace visited (file, root) ();
      while not (Queue.is_empty queue) do
        let fi, b, chain = Queue.take queue in
        order := (fi, b, List.rev chain) :: !order;
        List.iter
          (fun (fj, bj) ->
            if (not (Hashtbl.mem visited (fj, bj.b_name))) && not (stop fj bj.b_name) then begin
              Hashtbl.replace visited (fj, bj.b_name) ();
              Queue.add (fj, bj, display_name p ~root_file:file fj bj.b_name :: chain) queue
            end)
          (callees p fi b)
      done;
      List.rev !order
    end
