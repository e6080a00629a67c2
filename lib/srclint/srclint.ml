module D = Sun_analysis.Diagnostic

type hit = {
  h_path : string;
  h_line : int;
  h_col : int;
  h_text : string;
  h_diag : D.t;
}

type report = {
  files_scanned : int;
  tokens_seen : int;
  hits : hit list;
  suppressed : int;
  stale : D.t list;
}

let rec walk root =
  if Sys.file_exists root && not (Sys.is_directory root) then
    if Filename.check_suffix root ".ml" then [ root ] else []
  else
    match Sys.readdir root with
    | exception Sys_error _ -> []
    | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc name ->
          if name = "_build" || (String.length name > 0 && name.[0] = '.') then acc
          else begin
            let path = Filename.concat root name in
            if Sys.is_directory path then acc @ walk path
            else if Filename.check_suffix name ".ml" then acc @ [ path ]
            else acc
          end)
        [] entries

let hit_string h = Printf.sprintf "%s:%d:%s" h.h_path h.h_line h.h_text

let diagnostics r = List.map (fun h -> h.h_diag) r.hits @ r.stale

(* Per-file rules run on library code only, unless [lib_only] is off (the
   fixtures live under test/). *)
let under_lib path = List.mem "lib" (String.split_on_char '/' path)

(* Two-phase scan: load and model every file first (the hot-path pass needs
   the whole program), then run the per-file rules, then the hot-path pass
   — routing every finding through its owning file's inline suppressions,
   so (* sunstone-lint: allow SA070 ... *) works for both. Stale-suppression
   warnings come last, after both had their chance to mark a suppression
   used. *)
let scan ?(lib_only = true) ~roots () =
  let files = List.concat_map walk roots in
  let models =
    List.filter_map
      (fun path ->
        match In_channel.with_open_text path In_channel.input_all with
        | exception Sys_error _ -> None
        | src -> Some (Srcmod.of_source ~path src))
      files
  in
  let marr = Array.of_list models in
  let sups = Array.map (fun sm -> Suppress.collect sm.Srcmod.sm_lex) marr in
  let tokens =
    Array.fold_left (fun acc sm -> acc + Array.length sm.Srcmod.sm_lex.Lexer.tokens) 0 marr
  in
  let suppressed = ref 0 in
  let hits = ref [] in
  let record fi (f : Rules.finding) =
    let sm = marr.(fi) in
    let path = sm.Srcmod.sm_path in
    let code = D.code_id f.Rules.f_code in
    if Suppress.suppresses sups.(fi) ~code ~line:f.Rules.f_line then incr suppressed
    else
      hits :=
        {
          h_path = path;
          h_line = f.Rules.f_line;
          h_col = f.Rules.f_col;
          h_text = Srcmod.line_text sm f.Rules.f_line;
          h_diag =
            D.error f.Rules.f_code
              (Printf.sprintf "%s:%d: %s" path f.Rules.f_line f.Rules.f_message);
        }
        :: !hits
  in
  Array.iteri
    (fun fi sm ->
      if (not lib_only) || under_lib sm.Srcmod.sm_path then
        List.iter (record fi) (Rules.check_file sm))
    marr;
  List.iter
    (fun (pf : Rules.project_finding) -> record pf.Rules.pf_file pf.Rules.pf_finding)
    (Rules.check_project (Srcmod.project_of_files models));
  let stale = ref [] in
  Array.iteri
    (fun fi sm -> stale := !stale @ Suppress.stale ~path:sm.Srcmod.sm_path sups.(fi))
    marr;
  {
    files_scanned = Array.length marr;
    tokens_seen = tokens;
    hits = List.rev !hits;
    suppressed = !suppressed;
    stale = !stale;
  }
